#include "sweep/sweep.h"

#include <algorithm>
#include <utility>

#include "mach/address_space.h"
#include "support/error.h"
#include "support/strings.h"

namespace wrl {
namespace {

bool IsPow2(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

unsigned Log2(uint32_t v) {
  unsigned bits = 0;
  while ((1u << bits) < v) {
    ++bits;
  }
  return bits;
}

}  // namespace

// ---- CacheForest -------------------------------------------------------

CacheForest::CacheForest(uint32_t line_bytes, uint32_t min_size_bytes, uint32_t max_size_bytes)
    : line_bytes_(line_bytes), min_size_bytes_(min_size_bytes), max_size_bytes_(max_size_bytes) {
  if (!IsPow2(line_bytes)) {
    throw Error(StrFormat("sweep: line size %u is not a power of two", line_bytes));
  }
  if (!IsPow2(min_size_bytes)) {
    throw Error(StrFormat("sweep: cache size %u is not a power of two", min_size_bytes));
  }
  if (!IsPow2(max_size_bytes)) {
    throw Error(StrFormat("sweep: cache size %u is not a power of two", max_size_bytes));
  }
  if (min_size_bytes < line_bytes) {
    throw Error(StrFormat("sweep: cache size %u is smaller than its %u-byte line", min_size_bytes,
                          line_bytes));
  }
  if (max_size_bytes < min_size_bytes) {
    throw Error(StrFormat("sweep: cache family [%u, %u] is inverted", min_size_bytes,
                          max_size_bytes));
  }
  line_shift_ = Log2(line_bytes);
  min_bits_ = Log2(min_size_bytes / line_bytes);
  const unsigned max_bits = Log2(max_size_bytes / line_bytes);
  levels_ = max_bits - min_bits_ + 1;
  size_t total = 0;
  for (unsigned level = 0; level < levels_; ++level) {
    total += size_t{1} << (min_bits_ + level);
  }
  last_.assign(total, kNoLine);
  hits_at_level_.assign(levels_, 0);
}

uint64_t CacheForest::Misses(uint32_t size_bytes) const {
  if (!IsPow2(size_bytes)) {
    throw Error(StrFormat("sweep: cache size %u is not a power of two", size_bytes));
  }
  if (size_bytes < min_size_bytes_ || size_bytes > max_size_bytes_) {
    throw Error(StrFormat("sweep: cache size %u outside family [%u, %u] at line %u", size_bytes,
                          min_size_bytes_, max_size_bytes_, line_bytes_));
  }
  const unsigned level = Log2(size_bytes / line_bytes_) - min_bits_;
  // The hit set is an up-set of levels: a reference whose threshold is
  // `level` or smaller hits in this family member.
  uint64_t hits = 0;
  for (unsigned l = 0; l <= level; ++l) {
    hits += hits_at_level_[l];
  }
  return accesses_ - hits;
}

std::vector<uint32_t> CacheForest::FamilySizes() const {
  std::vector<uint32_t> sizes;
  sizes.reserve(levels_);
  for (unsigned level = 0; level < levels_; ++level) {
    sizes.push_back(line_bytes_ << (min_bits_ + level));
  }
  return sizes;
}

// ---- StackDistanceProfiler ---------------------------------------------

namespace {
// Small enough that a few thousand spills exercise compaction, large
// enough that compaction cost (O(live keys) each) stays negligible.
constexpr size_t kMinWindow = 4096;
}  // namespace

StackDistanceProfiler::StackDistanceProfiler() : window_(kMinWindow) {
  fenwick_.assign(window_ + 1, 0);
}

void StackDistanceProfiler::FenwickAdd(size_t pos, int delta) {
  for (size_t i = pos + 1; i <= window_; i += i & (~i + 1)) {
    fenwick_[i] += delta;
  }
}

uint64_t StackDistanceProfiler::FenwickPrefix(size_t pos) const {
  int64_t sum = 0;
  for (size_t i = pos + 1; i > 0; i -= i & (~i + 1)) {
    sum += fenwick_[i];
  }
  return static_cast<uint64_t>(sum);
}

void StackDistanceProfiler::Record(uint64_t distance) {
  if (distance_counts_.size() < distance) {
    distance_counts_.resize(distance, 0);
  }
  ++distance_counts_[distance - 1];
}

void StackDistanceProfiler::Compact() {
  // Renumber the tree's keys 0..live-1 in LRU order (ascending spill time
  // preserves every relative order, hence every future stack distance).
  std::vector<std::pair<uint32_t, uint64_t>> order;
  order.reserve(last_time_.size());
  for (const auto& [key, t] : last_time_) {
    order.emplace_back(t, key);
  }
  std::sort(order.begin(), order.end());
  size_t want = std::max<size_t>(kMinWindow, 2 * order.size());
  window_ = 1;
  while (window_ < want) {
    window_ <<= 1;
  }
  fenwick_.assign(window_ + 1, 0);
  uint32_t t = 0;
  for (const auto& [old_time, key] : order) {
    (void)old_time;
    last_time_[key] = t;
    FenwickAdd(t, 1);
    ++t;
  }
  time_ = t;
}

uint64_t StackDistanceProfiler::Access(uint64_t key) {
  ++accesses_;
  // A hit at array position p is stack distance p+1; moving the key to the
  // front reorders nothing outside top_[0..p].
  for (unsigned p = 0; p < top_size_; ++p) {
    if (top_[p] == key) {
      const uint64_t distance = p + 1;
      for (; p > 0; --p) {
        top_[p] = top_[p - 1];
      }
      top_[0] = key;
      Record(distance);
      return distance;
    }
  }
  uint64_t distance = 0;
  std::unordered_map<uint64_t, uint32_t>::node_type node;
  auto it = last_time_.find(key);
  if (it == last_time_.end()) {
    ++cold_misses_;
  } else {
    // Stack position = the array's keys (all more recent), the tree keys
    // that spilled after `key`, plus itself.
    distance = top_size_ + (live_ - FenwickPrefix(it->second)) + 1;
    Record(distance);
    FenwickAdd(it->second, -1);
    --live_;
    // Out of the map before a possible Compact(), which rebuilds the tree
    // from `last_time_`; the node is reused for the spill below.
    node = last_time_.extract(it);
  }
  if (top_size_ < kTopOfStack) {
    ++top_size_;  // The tree is still empty.
  } else {
    // The array's oldest key spills into the tree.  It is more recent than
    // every key already there, so the next timestamp keeps the order exact.
    if (time_ >= window_) {
      Compact();
    }
    const uint32_t now = time_++;
    const uint64_t spilled = top_[kTopOfStack - 1];
    if (node) {
      node.key() = spilled;
      node.mapped() = now;
      last_time_.insert(std::move(node));
    } else {
      last_time_.emplace(spilled, now);
    }
    FenwickAdd(now, 1);
    ++live_;
  }
  for (unsigned i = top_size_ - 1; i > 0; --i) {
    top_[i] = top_[i - 1];
  }
  top_[0] = key;
  return distance;
}

uint64_t StackDistanceProfiler::MissesAtCapacity(unsigned capacity) const {
  uint64_t misses = cold_misses_;
  for (size_t d = capacity; d < distance_counts_.size(); ++d) {
    misses += distance_counts_[d];
  }
  return misses;
}

// ---- SweepEngine -------------------------------------------------------

SweepEngine::SweepEngine(const SweepConfig& config)
    : config_(config), tlb_(config.tlb_wired), translator_(config.page_map) {
  for (const CacheFamilySpec& spec : config.icache) {
    iforests_.emplace_back(spec.line_bytes, spec.min_size_bytes, spec.max_size_bytes);
  }
  for (const CacheFamilySpec& spec : config.dcache) {
    dforests_.emplace_back(spec.line_bytes, spec.min_size_bytes, spec.max_size_bytes);
  }
}

void SweepEngine::CacheAccess(const TraceRef& ref) {
  if (InKseg1(ref.addr)) {
    // Uncached segment: a flat penalty, never a cache access — no family
    // member can disagree about it.
    if (ref.kind != TraceRef::kStore) {
      ++uncached_reads_;
    }
    return;
  }
  if (iforests_.empty() && dforests_.empty()) {
    // No family reads the physical address.  Skipping the translation
    // moves no throw: the primary simulator translates the same stream.
    return;
  }
  const uint32_t paddr = translator_.Translate(ref);
  switch (ref.kind) {
    case TraceRef::kIfetch:
      for (CacheForest& forest : iforests_) {
        forest.Access(paddr);
      }
      break;
    case TraceRef::kLoad:
      for (CacheForest& forest : dforests_) {
        forest.Access(paddr);
      }
      break;
    case TraceRef::kStore:
      // Write-through, no write allocation: stores cannot change any
      // family member's contents and their write-buffer cost is geometry-
      // independent, so the forests ignore them.
      break;
  }
}

void SweepEngine::OnRef(const TraceRef& ref) {
  ++refs_;
  if (ref.kind == TraceRef::kIfetch) {
    ++ifetches_;
  }
  if (InKuseg(ref.addr)) {
    // Mirror TlbSimulator's ASID attribution so the LRU curve prices the
    // same key stream the production TLB sees.
    uint8_t asid;
    if (ref.pid != kKernelPid) {
      asid = ref.pid;
      last_user_asid_ = ref.pid;
    } else {
      asid = last_user_asid_ == 0 ? 1 : last_user_asid_;
    }
    const uint64_t key = (static_cast<uint64_t>(asid) << 20) | (ref.addr >> kPageShift);
    tlb_stack_.Access(key);
  }
  // Same ordering as TraceDrivenSimulator::OnRef: the TLB simulation first
  // (a miss's synthesized handler enters the forests ahead of the
  // triggering reference), then the reference itself.
  if (tlb_.OnRef(ref)) {
    synthesized_refs_ += TlbSimulator::kHandlerRefs;
    for (const TraceRef& handler_ref : tlb_.handler()) {
      CacheAccess(handler_ref);
    }
  }
  CacheAccess(ref);
}

void SweepEngine::OnRefBatch(const TraceRef* refs, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    OnRef(refs[i]);
  }
}

const CacheForest* SweepEngine::FindForest(const std::vector<CacheForest>& forests,
                                           uint32_t line_bytes, uint32_t size_bytes) const {
  for (const CacheForest& forest : forests) {
    if (forest.line_bytes() == line_bytes && size_bytes >= forest.min_size_bytes() &&
        size_bytes <= forest.max_size_bytes() && IsPow2(size_bytes)) {
      return &forest;
    }
  }
  return nullptr;
}

uint64_t SweepEngine::IcacheMisses(uint32_t line_bytes, uint32_t size_bytes) const {
  const CacheForest* forest = FindForest(iforests_, line_bytes, size_bytes);
  if (forest == nullptr) {
    throw Error(StrFormat("sweep: no I-cache family covers size %u at line %u", size_bytes,
                          line_bytes));
  }
  return forest->Misses(size_bytes);
}

uint64_t SweepEngine::DcacheMisses(uint32_t line_bytes, uint32_t size_bytes) const {
  const CacheForest* forest = FindForest(dforests_, line_bytes, size_bytes);
  if (forest == nullptr) {
    throw Error(StrFormat("sweep: no D-cache family covers size %u at line %u", size_bytes,
                          line_bytes));
  }
  return forest->Misses(size_bytes);
}

Prediction SweepEngine::DerivePrediction(const Prediction& primary,
                                         const MemSysConfig& geometry) const {
  Prediction derived = primary;
  const uint64_t icache = IcacheMisses(geometry.icache.line_bytes, geometry.icache.size_bytes);
  const uint64_t dcache = DcacheMisses(geometry.dcache.line_bytes, geometry.dcache.size_bytes);
  const int64_t delta = static_cast<int64_t>(icache + dcache) -
                        static_cast<int64_t>(primary.memsys_stats.icache_misses +
                                             primary.memsys_stats.dcache_misses);
  derived.memsys_stats.icache_misses = icache;
  derived.memsys_stats.dcache_misses = dcache;
  const int64_t stall_delta = delta * static_cast<int64_t>(geometry.read_miss_penalty);
  // Uncached penalties and the write-buffer history are carried over from
  // the primary run; the miss counts above are exact.  The total can only
  // underflow if the primary stalls were entirely cache misses and the
  // family point has fewer — clamp.
  const int64_t stalls = static_cast<int64_t>(primary.mem_stall_cycles) + stall_delta;
  derived.mem_stall_cycles = stalls < 0 ? 0 : static_cast<uint64_t>(stalls);
  const int64_t user = static_cast<int64_t>(primary.user_stall_cycles);
  const int64_t kernel = static_cast<int64_t>(primary.kernel_stall_cycles);
  // Attribute the stall delta to user/kernel proportionally to the primary
  // split (the sweep does not track per-mode thresholds).
  if (user + kernel > 0) {
    const int64_t user_share = stall_delta * user / (user + kernel);
    const int64_t new_user = user + user_share;
    const int64_t new_kernel = kernel + (stall_delta - user_share);
    derived.user_stall_cycles = new_user < 0 ? 0 : static_cast<uint64_t>(new_user);
    derived.kernel_stall_cycles = new_kernel < 0 ? 0 : static_cast<uint64_t>(new_kernel);
  }
  return derived;
}

const SweepResult& SweepEngine::Finish() {
  if (finished_) {
    return result_;
  }
  finished_ = true;
  result_ = SweepResult{};
  for (const CacheForest& forest : iforests_) {
    for (uint32_t size : forest.FamilySizes()) {
      result_.icache.push_back({forest.line_bytes(), size, forest.Misses(size)});
    }
  }
  for (const CacheForest& forest : dforests_) {
    for (uint32_t size : forest.FamilySizes()) {
      result_.dcache.push_back({forest.line_bytes(), size, forest.Misses(size)});
    }
  }
  if (config_.tlb_max_entries > 0) {
    result_.tlb_lru_misses.reserve(config_.tlb_max_entries);
    for (unsigned c = 1; c <= config_.tlb_max_entries; ++c) {
      result_.tlb_lru_misses.push_back(tlb_stack_.MissesAtCapacity(c));
    }
  }
  // The reuse-distance histogram, one counted sample per distance.
  const std::vector<uint64_t>& distances = tlb_stack_.distance_counts();
  for (size_t d = 0; d < distances.size(); ++d) {
    reuse_hist_.Record(d + 1, distances[d]);
  }
  result_.tlb_cold_misses = tlb_stack_.cold_misses();
  result_.tlb_refs = tlb_stack_.accesses();
  result_.refs = refs_;
  result_.ifetches = ifetches_;
  result_.synthesized_refs = synthesized_refs_;
  result_.tlb = tlb_.stats();
  result_.family_points = result_.icache.size() + result_.dcache.size();
  return result_;
}

void SweepEngine::RegisterStats(StatsRegistry& registry, const std::string& prefix) {
  registry.AddCounter(prefix + "refs", &refs_);
  registry.AddCounter(prefix + "ifetches", &ifetches_);
  registry.AddCounter(prefix + "synthesized_refs", &synthesized_refs_);
  registry.AddCounter(prefix + "uncached_reads", &uncached_reads_);
  registry.AddGauge(prefix + "family_points",
                    [this] { return static_cast<double>(iforests_.size() + dforests_.size()); });
  registry.AddGauge(prefix + "tlb_distinct_pages",
                    [this] { return static_cast<double>(tlb_stack_.distinct_keys()); });
  registry.AddGauge(prefix + "tlb_cold_misses",
                    [this] { return static_cast<double>(tlb_stack_.cold_misses()); });
  registry.AddHistogram(prefix + "tlb_reuse_distance", &reuse_hist_);
  tlb_.RegisterStats(registry, prefix + "tlbsim.");
}

}  // namespace wrl
