// The analysis oracle: TraceProfiler and SweepEngine walk fetch runs
// (FetchRunLength) — the profiler charges a run's totals, page tally and
// working-set window at once and advances a cursor a block segment at a
// time; the sweep makes one LRU-stack access, one TLB probe and one forest
// lookup per line per run — and ReferenceProfiler and ReferenceSweep below
// are the per-reference walks they replaced.  The two must agree exactly:
// the profile's canonical JSON, the sweep's result and its `sweep.*`
// registry counters, on the system traces of every paper workload under
// both personalities, delivered in batches of 1, 3 and 4,096 references,
// and on a seeded synthetic stream built to end a run, a cursor segment
// or a working-set window at every boundary the walks know.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness/experiment.h"
#include "kernel/system_build.h"
#include "mach/address_space.h"
#include "prof/prof.h"
#include "sim/predictor.h"
#include "sim/tlb_sim.h"
#include "stats/stats.h"
#include "support/error.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/strings.h"
#include "sweep/sweep.h"
#include "trace/parser.h"
#include "workloads/workloads.h"

namespace wrl {
namespace {

// ---------------------------------------------------------------------------
// The per-reference profiler: TraceProfiler as it was before it walked
// fetch runs, without its lookup memos (each one exact by the invariants
// DESIGN.md §9 states).  Each reference takes its totals, page, window and
// cursor step of its own.

class ReferenceProfiler {
 public:
  explicit ReferenceProfiler(ProfileOptions options) : options_(options) {}

  void AddTable(uint8_t pid, const TraceInfoTable* table) {
    Space& space = SpaceFor(pid);
    std::unordered_map<uint32_t, uint32_t> leader_keys;
    for (const auto& [key_addr, info] : table->blocks()) {
      auto it = leader_keys.find(info.orig_addr);
      // Duplicate leaders resolve to the smallest key address.
      if (it == leader_keys.end() || key_addr < it->second) {
        leader_keys[info.orig_addr] = key_addr;
        space.leaders[info.orig_addr] = &info;
      }
    }
  }
  void AddSymbols(uint8_t pid, const Executable& exe) {
    for (const auto& [name, addr] : exe.symbols) {
      if (addr >= exe.text_base && addr < exe.TextEnd()) {
        AddSymbol(pid, name, addr);
      }
    }
  }
  void AddSymbol(uint8_t pid, const std::string& name, uint32_t addr) {
    Space& space = SpaceFor(pid);
    space.symbols.emplace_back(addr, name);
    std::sort(space.symbols.begin(), space.symbols.end());
  }
  void SetSpaceName(uint8_t pid, std::string name) { SpaceFor(pid).name = std::move(name); }

  void OnRef(const TraceRef& ref) {
    Space& space = SpaceFor(ref.pid);
    ++totals_.refs;
    PageProfile& page = space.pages[PageBase(ref.addr)];
    page.page_addr = PageBase(ref.addr);
    ++(ref.kind == TraceRef::kIfetch ? page.ifetches
                                     : ref.kind == TraceRef::kLoad ? page.loads : page.stores);
    window_pages_.insert((static_cast<uint64_t>(ref.pid) << 32) | PageOf(ref.addr));
    if (++window_fill_ == options_.window_refs) {
      working_set_.push_back(window_pages_.size());
      window_pages_.clear();
      window_fill_ = 0;
    }

    if (ref.kind == TraceRef::kIfetch) {
      ++totals_.insts;
      ++(ref.kernel ? totals_.kernel_insts : totals_.user_insts);
      if (ref.idle) {
        ++totals_.idle_insts;
      }
      if (!space.stack.empty()) {
        Cursor& top = space.stack.back();
        if (!top.awaiting && ref.addr == top.info->orig_addr + 4 * top.next_inst) {
          Advance(space, ref);
          return;
        }
      }
      auto it = space.leaders.find(ref.addr);
      if (it == space.leaders.end()) {
        ++totals_.unattributed_insts;
        return;
      }
      Tally& tally = space.tallies[ref.addr];
      tally.info = it->second;
      ++tally.entries;
      space.stack.push_back({it->second, &tally});
      ++totals_.block_entries;
      Advance(space, ref);
      return;
    }
    ++(ref.kind == TraceRef::kLoad ? totals_.loads : totals_.stores);
    if (space.stack.empty() || !space.stack.back().awaiting) {
      ++totals_.unattributed_data;
      return;
    }
    Cursor& top = space.stack.back();
    ++(ref.kind == TraceRef::kLoad ? top.tally->loads : top.tally->stores);
    top.awaiting = false;
    ++top.next_mem;
    if (top.next_inst == top.info->num_insts) {
      space.stack.pop_back();
    }
  }

  Profile Finish() const {
    Profile profile;
    profile.totals = totals_;
    profile.window_refs = options_.window_refs;
    profile.working_set = working_set_;
    profile.tail_refs = window_fill_;
    if (window_fill_ > 0) {
      profile.working_set.push_back(window_pages_.size());
    }
    for (const auto& [pid, space] : spaces_) {
      std::map<std::pair<uint32_t, std::string>, SymbolProfile> rollup;
      for (const auto& [leader, tally] : space.tallies) {
        const auto* sym = SymbolAtOrBelow(space, leader);
        BlockProfile block;
        block.pid = pid;
        block.space = space.name;
        block.symbol = sym == nullptr ? StrFormat("0x%08x", leader)
                       : leader == sym->first
                           ? sym->second
                           : StrFormat("%s+0x%x", sym->second.c_str(), leader - sym->first);
        block.addr = leader;
        block.num_insts = tally.info->num_insts;
        block.instr_words = tally.info->instr_words;
        block.flags = tally.info->flags;
        block.entries = tally.entries;
        block.insts = tally.insts;
        block.loads = tally.loads;
        block.stores = tally.stores;
        block.idle_insts = tally.idle_insts;
        profile.totals.trace_words += block.TraceWords();
        profile.totals.overhead_insts += block.OverheadInsts();
        const std::pair<uint32_t, std::string> key =
            sym == nullptr ? std::make_pair(0u, std::string("[unknown]")) : *sym;
        SymbolProfile& entry = rollup[key];
        entry.pid = pid;
        entry.space = space.name;
        entry.name = key.second;
        entry.addr = key.first;
        ++entry.blocks;
        entry.entries += block.entries;
        entry.insts += block.insts;
        entry.loads += block.loads;
        entry.stores += block.stores;
        entry.trace_words += block.TraceWords();
        entry.overhead_insts += block.OverheadInsts();
        profile.blocks.push_back(std::move(block));
      }
      for (auto& [key, entry] : rollup) {
        profile.symbols.push_back(std::move(entry));
      }
      for (const auto& [page_addr, tally] : space.pages) {
        PageProfile entry = tally;
        entry.pid = pid;
        entry.space = space.name;
        profile.pages.push_back(std::move(entry));
      }
    }
    std::sort(profile.blocks.begin(), profile.blocks.end(),
              [](const BlockProfile& a, const BlockProfile& b) {
                return std::tuple(b.insts, a.pid, a.addr) < std::tuple(a.insts, b.pid, b.addr);
              });
    std::sort(profile.symbols.begin(), profile.symbols.end(),
              [](const SymbolProfile& a, const SymbolProfile& b) {
                return std::tie(b.insts, a.pid, a.addr, a.name) <
                       std::tie(a.insts, b.pid, b.addr, b.name);
              });
    std::sort(profile.pages.begin(), profile.pages.end(),
              [](const PageProfile& a, const PageProfile& b) {
                return std::tuple(b.Total(), a.pid, a.page_addr) <
                       std::tuple(a.Total(), b.pid, b.page_addr);
              });
    return profile;
  }

 private:
  struct Tally {
    const TraceBlockInfo* info = nullptr;
    uint64_t entries = 0;
    uint64_t insts = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t idle_insts = 0;
  };
  struct Cursor {
    const TraceBlockInfo* info = nullptr;
    Tally* tally = nullptr;
    uint32_t next_inst = 0;
    uint32_t next_mem = 0;
    bool awaiting = false;
  };
  struct Space {
    std::string name;
    std::map<uint32_t, const TraceBlockInfo*> leaders;
    std::map<uint32_t, Tally> tallies;  // Leader order: Finish's rollup walk.
    std::map<uint32_t, PageProfile> pages;
    std::vector<std::pair<uint32_t, std::string>> symbols;  // Sorted.
    std::vector<Cursor> stack;
  };

  Space& SpaceFor(uint8_t pid) {
    auto [it, inserted] = spaces_.try_emplace(pid);
    if (inserted) {
      it->second.name =
          pid == kKernelPid ? "kernel" : StrFormat("pid%u", static_cast<unsigned>(pid));
    }
    return it->second;
  }
  static const std::pair<uint32_t, std::string>* SymbolAtOrBelow(const Space& space,
                                                                 uint32_t addr) {
    auto it = std::upper_bound(
        space.symbols.begin(), space.symbols.end(), addr,
        [](uint32_t a, const std::pair<uint32_t, std::string>& s) { return a < s.first; });
    return it == space.symbols.begin() ? nullptr : &*(it - 1);
  }
  void Advance(Space& space, const TraceRef& ref) {
    Cursor& cursor = space.stack.back();
    ++cursor.tally->insts;
    if (ref.idle) {
      ++cursor.tally->idle_insts;
    }
    ++cursor.next_inst;
    const TraceBlockInfo& info = *cursor.info;
    if (cursor.next_mem < info.mem_ops.size() &&
        info.mem_ops[cursor.next_mem].index == cursor.next_inst - 1) {
      cursor.awaiting = true;
    } else if (cursor.next_inst == info.num_insts) {
      space.stack.pop_back();
    }
  }

  ProfileOptions options_;
  std::map<uint8_t, Space> spaces_;
  ProfileTotals totals_;
  std::set<uint64_t> window_pages_;
  uint64_t window_fill_ = 0;
  std::vector<uint64_t> working_set_;
};

// ---------------------------------------------------------------------------
// The per-reference sweep: SweepEngine as it was before it walked fetch
// runs.  Every reference takes an LRU-stack access, a TLB probe and a
// cache access of its own; a UTLB miss's synthesized handler enters the
// forests one reference at a time.

class ReferenceSweep {
 public:
  explicit ReferenceSweep(const SweepConfig& config)
      : config_(config), tlb_(config.tlb_wired), translator_(config.page_map) {
    for (const CacheFamilySpec& spec : config.icache) {
      iforests_.emplace_back(spec.line_bytes, spec.min_size_bytes, spec.max_size_bytes);
    }
    for (const CacheFamilySpec& spec : config.dcache) {
      dforests_.emplace_back(spec.line_bytes, spec.min_size_bytes, spec.max_size_bytes);
    }
  }

  void OnRef(const TraceRef& ref) {
    ++refs_;
    if (ref.kind == TraceRef::kIfetch) {
      ++ifetches_;
    }
    if (InKuseg(ref.addr)) {
      uint8_t asid;
      if (ref.pid != kKernelPid) {
        asid = ref.pid;
        last_user_asid_ = ref.pid;
      } else {
        asid = last_user_asid_ == 0 ? 1 : last_user_asid_;
      }
      tlb_stack_.Access((static_cast<uint64_t>(asid) << 20) | (ref.addr >> kPageShift));
    }
    if (tlb_.OnRef(ref)) {
      synthesized_refs_ += TlbSimulator::kHandlerRefs;
      for (const TraceRef& handler_ref : tlb_.handler()) {
        CacheAccess(handler_ref);
      }
    }
    CacheAccess(ref);
  }

  // Idempotent, as SweepEngine::Finish is.
  const SweepResult& Finish() {
    if (finished_) {
      return result_;
    }
    finished_ = true;
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
    for (unsigned c = 1; c <= config_.tlb_max_entries; ++c) {
      result_.tlb_lru_misses.push_back(tlb_stack_.MissesAtCapacity(c));
    }
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

  // SweepEngine::RegisterStats's names and values.
  void RegisterStats(StatsRegistry& registry, const std::string& prefix) {
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

 private:
  void CacheAccess(const TraceRef& ref) {
    if (InKseg1(ref.addr)) {
      if (ref.kind != TraceRef::kStore) {
        ++uncached_reads_;
      }
      return;
    }
    if (iforests_.empty() && dforests_.empty()) {
      return;
    }
    const uint32_t paddr = translator_.Translate(ref);
    if (ref.kind == TraceRef::kIfetch) {
      for (CacheForest& forest : iforests_) {
        forest.Access(paddr);
      }
    } else if (ref.kind == TraceRef::kLoad) {
      for (CacheForest& forest : dforests_) {
        forest.Access(paddr);
      }
    }
  }

  SweepConfig config_;
  TlbSimulator tlb_;
  PageTranslator translator_;
  std::vector<CacheForest> iforests_;
  std::vector<CacheForest> dforests_;
  StackDistanceProfiler tlb_stack_;
  uint8_t last_user_asid_ = 0;
  Histogram reuse_hist_;
  uint64_t refs_ = 0;
  uint64_t ifetches_ = 0;
  uint64_t synthesized_refs_ = 0;
  uint64_t uncached_reads_ = 0;
  bool finished_ = false;
  SweepResult result_;
};

// ---------------------------------------------------------------------------
// Running both and comparing.

// Hands `refs` to `sink` in batches of `batch` (the last may be shorter).
void Deliver(RefBatchSink& sink, const std::vector<TraceRef>& refs, size_t batch) {
  for (size_t i = 0; i < refs.size(); i += batch) {
    sink.OnRefBatch(refs.data() + i, std::min(batch, refs.size() - i));
  }
}

void ExpectSamePoints(const std::vector<SweepCachePoint>& got,
                      const std::vector<SweepCachePoint>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(StrFormat("%u-byte lines, %u bytes", want[i].line_bytes, want[i].size_bytes));
    EXPECT_EQ(got[i].line_bytes, want[i].line_bytes);
    EXPECT_EQ(got[i].size_bytes, want[i].size_bytes);
    EXPECT_EQ(got[i].misses, want[i].misses);
  }
}

// The registry snapshot under `sweep.`, rendered whole.
template <typename Sweep>
std::string SweepCounters(Sweep& sweep) {
  StatsRegistry registry;
  sweep.RegisterStats(registry, "sweep.");
  JsonWriter writer(0);
  registry.Snapshot().WriteJson(writer);
  return writer.TakeString();
}

// Finishes `got` and requires its result and counters to match `want`'s.
void ExpectSameSweep(SweepEngine& got, ReferenceSweep& want) {
  const SweepResult& g = got.Finish();
  const SweepResult& w = want.Finish();
  ExpectSamePoints(g.icache, w.icache);
  ExpectSamePoints(g.dcache, w.dcache);
  EXPECT_EQ(g.tlb_lru_misses, w.tlb_lru_misses);
  EXPECT_EQ(g.tlb_cold_misses, w.tlb_cold_misses);
  EXPECT_EQ(g.tlb_refs, w.tlb_refs);
  EXPECT_EQ(g.refs, w.refs);
  EXPECT_EQ(g.ifetches, w.ifetches);
  EXPECT_EQ(g.synthesized_refs, w.synthesized_refs);
  EXPECT_EQ(g.tlb, w.tlb);
  EXPECT_EQ(g.family_points, w.family_points);
  EXPECT_EQ(SweepCounters(got), SweepCounters(want));
}

// The fetches that continue a run from the reference before them: what the
// run walks absorb.  Restated here from the run's definition.
size_t AbsorbedFetches(const std::vector<TraceRef>& refs) {
  size_t absorbed = 0;
  for (size_t i = 1; i < refs.size(); ++i) {
    const TraceRef& prev = refs[i - 1];
    const TraceRef& ref = refs[i];
    absorbed += prev.kind == TraceRef::kIfetch && ref.kind == TraceRef::kIfetch &&
                !InKseg1(prev.addr) && ref.addr == prev.addr + 4 &&
                PageOf(ref.addr) == PageOf(prev.addr) && ref.pid == prev.pid &&
                ref.kernel == prev.kernel && ref.idle == prev.idle;
  }
  return absorbed;
}

// ---------------------------------------------------------------------------
// The system traces of every paper workload, under both personalities.

struct SystemStream {
  std::unique_ptr<SystemInstance> measured;
  std::unique_ptr<SystemInstance> traced;  // Its tables feed the profiler.
  PredictorConfig pconfig;
  std::vector<TraceRef> refs;
};

SystemStream CaptureSystemStream(const std::string& name, Personality personality) {
  ExperimentOptions options;
  options.personality = personality;
  const WorkloadSpec workload = PaperWorkload(name, 0.02);
  SystemStream stream;
  stream.measured = BuildSystem(ExperimentSystemConfig(workload, options, false));
  stream.pconfig = ExperimentPredictorConfig(*stream.measured, options);
  stream.traced = BuildSystem(ExperimentSystemConfig(workload, options, true));
  std::unique_ptr<TraceParser> parser = SystemTraceParser(*stream.traced);
  RefFnSink collect([&stream](const TraceRef& ref) { stream.refs.push_back(ref); });
  parser->SetBatchSink(&collect);
  stream.traced->SetTraceSink(
      [&parser](const uint32_t* words, size_t count) { parser->Feed(words, count); });
  EXPECT_TRUE(stream.traced->Run(options.max_instructions).halted);
  stream.traced->SetTraceSink(nullptr);
  parser->Finish();
  EXPECT_EQ(parser->stats().validation_errors, 0u);
  return stream;
}

// ProfileSystemSpaces, for either profiler.
template <typename Profiler>
void WireSpaces(Profiler& profiler, const SystemInstance& traced) {
  profiler.AddTable(kKernelPid, &traced.kernel_table());
  profiler.AddSymbols(kKernelPid, traced.kernel_orig());
  for (const SystemInstance::UserSpace& space : traced.user_spaces()) {
    profiler.AddTable(space.pid, space.table);
    profiler.AddSymbols(space.pid, *space.orig);
    profiler.SetSpaceName(space.pid, space.name);
  }
}

// The TLB curve, and I- and D-cache families at 4-, 16- and 64-byte lines.
SweepConfig SystemSweepConfig(const PredictorConfig& pconfig) {
  SweepConfig config;
  config.page_map = pconfig.page_map;
  config.tlb_wired = pconfig.tlb_wired;
  for (uint32_t line : {4u, 16u, 64u}) {
    config.icache.push_back({line, 1024, 64 * 1024});
    config.dcache.push_back({line, 1024, 64 * 1024});
  }
  config.tlb_max_entries = 64;
  return config;
}

class SystemAnalysisOracle
    : public ::testing::TestWithParam<std::tuple<std::string, Personality>> {};

TEST_P(SystemAnalysisOracle, MatchesPerReferenceWalks) {
  const auto& [name, personality] = GetParam();
  const SystemStream stream = CaptureSystemStream(name, personality);
  ASSERT_FALSE(stream.refs.empty());
  // Windows that close every thousand references, mid-run among others.
  ProfileOptions profile_options;
  profile_options.window_refs = 1000;
  const SweepConfig sweep_config = SystemSweepConfig(stream.pconfig);

  ReferenceProfiler want_profiler(profile_options);
  WireSpaces(want_profiler, *stream.traced);
  ReferenceSweep want_sweep(sweep_config);
  for (const TraceRef& ref : stream.refs) {
    want_profiler.OnRef(ref);
    want_sweep.OnRef(ref);
  }
  const Profile want_profile = want_profiler.Finish();
  const std::string want_json = want_profile.CanonicalJson();

  for (size_t batch : {size_t{1}, size_t{3}, kRefBatchCapacity}) {
    SCOPED_TRACE("batches of " + std::to_string(batch));
    TraceProfiler profiler(profile_options);
    ProfileSystemSpaces(profiler, *stream.traced);
    SweepEngine sweep(sweep_config);
    Deliver(profiler, stream.refs, batch);
    Deliver(sweep, stream.refs, batch);
    EXPECT_EQ(profiler.Finish().CanonicalJson(), want_json);
    ExpectSameSweep(sweep, want_sweep);
  }

  // Not vacuous: the runs absorb a large share of the stream, every fetch
  // is attributed, and the TLB misses.
  EXPECT_GT(AbsorbedFetches(stream.refs), stream.refs.size() / 4);
  EXPECT_GT(want_profile.totals.block_entries, 0u);
  EXPECT_EQ(want_profile.totals.unattributed_insts, 0u);
  EXPECT_GT(want_profile.working_set.size(), 10u);
  EXPECT_GT(want_sweep.Finish().synthesized_refs, 0u);
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : PaperWorkloads(0.02)) {
    names.push_back(w.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SystemAnalysisOracle,
    ::testing::Combine(::testing::ValuesIn(WorkloadNames()),
                       ::testing::Values(Personality::kUltrix, Personality::kMach)),
    [](const ::testing::TestParamInfo<SystemAnalysisOracle::ParamType>& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == Personality::kMach ? "_mach" : "_ultrix");
    });

// ---------------------------------------------------------------------------
// A synthetic stream that ends a run, a cursor segment and a window at
// every boundary.

constexpr uint32_t kUserText = 0x00400000;
constexpr uint32_t kKernelText = kKseg0;
constexpr uint32_t kTextWords = 3 * 1024 + 200;  // Ends 800 bytes into a fourth page.
// Irregular kernel blocks, past the kernel text.
constexpr uint32_t kIrregularText = kKernelText + 0x4000;
// Working-set windows of 7 references close inside most runs.
constexpr uint64_t kWindow = 7;

// Blocks laid end to end over `kTextWords` words of text at `base`, as a
// linker would place them: 1-12 instructions, a quarter of them memory
// ops.  Many cross a page boundary.
void AddTextBlocks(TraceInfoTable& table, uint32_t base, uint32_t key_base, Rng& rng) {
  uint32_t word = 0;
  for (uint32_t i = 0; word < kTextWords; ++i) {
    TraceBlockInfo info;
    info.orig_addr = base + 4 * word;
    info.num_insts = std::min(1 + rng.Below(12), kTextWords - word);
    for (uint32_t j = 0; j < info.num_insts; ++j) {
      if (rng.Below(4) == 0) {
        info.mem_ops.push_back({static_cast<uint16_t>(j), rng.Below(2) == 0, 4});
      }
    }
    info.instr_words = info.num_insts + 2 + 2 * static_cast<uint32_t>(info.mem_ops.size());
    word += info.num_insts;
    table.Add(key_base + 4 * i, std::move(info));
  }
}

// Blocks no linker makes, which the cursor rules must take as the
// per-reference walk does: no instructions (the cursor never pops), a
// memory op past the block's end (never awaited), memory ops out of order
// and repeated, and a leader listed twice (the smaller key wins).
void AddIrregularBlocks(TraceInfoTable& table, uint32_t key_base) {
  table.Add(key_base, {kIrregularText, 0, 0, {}, 2});
  table.Add(key_base + 4, {kIrregularText + 0x100, 4, 0, {{6, false, 4}}, 8});
  table.Add(key_base + 8, {kIrregularText + 0x200, 5, 0, {{3, true, 4}, {1, false, 4}}, 9});
  table.Add(key_base + 12, {kIrregularText + 0x300, 3, 0, {{1, false, 4}, {1, true, 4}}, 9});
  table.Add(key_base + 20, {kIrregularText + 0x400, 6, 0, {{2, false, 4}}, 9});
  table.Add(key_base + 16, {kIrregularText + 0x400, 2, 0, {}, 4});
}

struct SyntheticTables {
  TraceInfoTable user;
  TraceInfoTable kernel;
};

// What the stream generator did, to show the test is not vacuous.
struct StreamEvents {
  size_t nested_entries = 0;  // Kernel blocks entered on an awaiting cursor.
  size_t skipped_data = 0;    // Runs carried on past a memory op's fetch.
  size_t irregular_runs = 0;
};

class AttributionStream {
 public:
  AttributionStream(const SyntheticTables& tables, uint64_t seed)
      : tables_(tables), rng_(seed) {}

  // Episodes of parser-shaped block walks with the perturbations that end
  // runs and segments:
  //   * walks through consecutive blocks, so runs cross block ends, and
  //     pages where a block straddles one;
  //   * mid-run changes of pid (to a space with a table or without one),
  //     kernel mode, the kernel flag alone, and the idle flag;
  //   * memory ops whose data arrives at once, late (after a nested kernel
  //     block entered on the awaiting cursor), or never, so the run goes
  //     on past the await point;
  //   * runs from a random word of the text (unattributed fetches until the
  //     next leader), from outside every table, from kseg1 and kseg2, and
  //     through the irregular blocks;
  //   * loads and stores between episodes, mostly unattributed.
  std::vector<TraceRef> Generate(size_t episodes) {
    for (size_t e = 0; e < episodes; ++e) {
      const uint32_t what = rng_.Below(20);
      if (what < 12) {
        const bool kernel = what >= 8;
        const TraceInfoTable& table = kernel ? tables_.kernel : tables_.user;
        pid_ = kernel ? kKernelPid : static_cast<uint8_t>(1 + rng_.Below(3));
        kernel_ = kernel;
        idle_ = kernel && rng_.Below(3) == 0;
        WalkBlocks(table, rng_.Below(static_cast<uint32_t>(table.size())), 1 + rng_.Below(6),
                   true);
      } else if (what < 14) {
        RandomRun(rng_.Below(2) == 0 ? kUserText : kKernelText, kTextWords);
      } else if (what < 15) {
        RandomRun(0x00500000 + rng_.Below(160) * kPageBytes, 1024);
      } else if (what < 16) {
        pid_ = kKernelPid;
        kernel_ = true;
        Fetches((rng_.Below(2) == 0 ? kKseg1 : kKseg2) + rng_.Below(4) * kPageBytes +
                    4 * rng_.Below(1024),
                1 + rng_.Below(12));
      } else if (what < 17) {
        pid_ = kKernelPid;
        kernel_ = true;
        idle_ = false;
        ++events_.irregular_runs;
        Fetches(kIrregularText + 0x100 * rng_.Below(5) + 4 * rng_.Below(3), 1 + rng_.Below(12));
      } else {
        // A user pid with no table.
        pid_ = 4;
        kernel_ = false;
        Fetches(kUserText + 4 * rng_.Below(kTextWords), 1 + rng_.Below(20));
      }
      for (uint32_t d = rng_.Below(4); d > 0; --d) {
        refs_.push_back(Data(rng_.Below(2) == 0));
      }
    }
    return std::move(refs_);
  }

  const StreamEvents& events() const { return events_; }

 private:
  // `count` blocks from block `first` of `table` on, in the current mode.
  void WalkBlocks(const TraceInfoTable& table, size_t first, size_t count, bool may_nest) {
    for (size_t b = first; b < std::min(first + count, table.size()); ++b) {
      const TraceBlockInfo& info = table.blocks()[b].info;
      size_t next_mem = 0;
      for (uint32_t i = 0; i < info.num_insts; ++i) {
        Perturb();
        Fetch(info.orig_addr + 4 * i);
        if (next_mem < info.mem_ops.size() && info.mem_ops[next_mem].index == i) {
          const bool store = info.mem_ops[next_mem++].is_store;
          const uint32_t how = rng_.Below(10);
          if (how == 0) {
            ++events_.skipped_data;
            continue;
          }
          if (how == 1 && kernel_ && may_nest) {
            // An exception in the kernel: a kernel block runs to its end on
            // top of the awaiting one, whose data comes after.
            ++events_.nested_entries;
            const uint8_t pid = pid_;
            const bool kernel = kernel_;
            const bool idle = idle_;
            WalkBlocks(tables_.kernel, rng_.Below(static_cast<uint32_t>(tables_.kernel.size())),
                       1, false);
            pid_ = pid;
            kernel_ = kernel;
            idle_ = idle;
          }
          refs_.push_back(Data(store));
        }
      }
    }
  }

  // Rarely, a mid-run change of pid, kernel mode or idle flag, or of the
  // kernel flag alone, which the parser never writes but the run's
  // definition compares on its own.
  void Perturb() {
    switch (rng_.Below(48)) {
      case 0:
        if (!kernel_) {
          pid_ = static_cast<uint8_t>(1 + rng_.Below(4));  // 4 has no table.
        }
        break;
      case 1:
        kernel_ = !kernel_;
        pid_ = kernel_ ? kKernelPid : static_cast<uint8_t>(1 + rng_.Below(3));
        idle_ = false;
        break;
      case 2:
        idle_ = kernel_ && !idle_;
        break;
      case 3:
        kernel_ = !kernel_;
        idle_ = false;
        break;
      default:
        break;
    }
  }

  // A run of up to a page from a random word of [base, base + 4 * words).
  void RandomRun(uint32_t base, uint32_t words) {
    kernel_ = base >= kKseg0;
    pid_ = kernel_ ? kKernelPid : static_cast<uint8_t>(1 + rng_.Below(3));
    idle_ = false;
    const uint32_t start = rng_.Below(words);
    Fetches(base + 4 * start, 1 + rng_.Below(40));
  }

  void Fetches(uint32_t addr, uint32_t count) {
    for (uint32_t i = 0; i < count; ++i) {
      Perturb();
      Fetch(addr + 4 * i);
    }
  }

  void Fetch(uint32_t addr) {
    refs_.push_back({addr, TraceRef::kIfetch, 4, pid_, kernel_, kernel_ && idle_});
  }

  // A load or store in the current mode: user data in kuseg, kernel data
  // in any segment.
  TraceRef Data(bool store) {
    const TraceRef::Kind kind = store ? TraceRef::kStore : TraceRef::kLoad;
    const uint32_t offset = 4 * rng_.Below(kPageBytes / 4);
    uint32_t addr = 0x10000000 + rng_.Below(96) * kPageBytes + offset;
    if (kernel_) {
      switch (rng_.Below(4)) {
        case 0:
          addr = kKseg1 + 0x00100000 + offset;
          break;
        case 1:
          addr = kKseg2 + rng_.Below(8) * kPageBytes + offset;
          break;
        case 2:
          addr = kKseg0 + 0x00200000 + rng_.Below(16) * kPageBytes + offset;
          break;
        default:
          break;
      }
    }
    return {addr, kind, 4, pid_, kernel_, false};
  }

  const SyntheticTables& tables_;
  Rng rng_;
  std::vector<TraceRef> refs_;
  StreamEvents events_;
  uint8_t pid_ = 1;
  bool kernel_ = false;
  bool idle_ = false;
};

// Both profilers, wired alike: the user table in pids 1-3, the kernel's,
// a few symbols; pid 4 has no table.
template <typename Profiler>
void WireSynthetic(Profiler& profiler, const SyntheticTables& tables) {
  for (uint8_t pid : {1, 2, 3}) {
    profiler.AddTable(pid, &tables.user);
    profiler.AddSymbol(pid, "main", kUserText);
    profiler.AddSymbol(pid, "helper", kUserText + 0x1800);
    profiler.SetSpaceName(pid, StrFormat("user%u", static_cast<unsigned>(pid)));
  }
  profiler.AddTable(kKernelPid, &tables.kernel);
  profiler.AddSymbol(kKernelPid, "trap", kKernelText + 0x200);
  profiler.AddSymbol(kKernelPid, "odd", kIrregularText);
}

TEST(AnalysisOracle, SyntheticBoundariesMatchPerReferenceWalks) {
  Rng rng(2029);
  SyntheticTables tables;
  AddTextBlocks(tables.user, kUserText, 0x10000000, rng);
  AddTextBlocks(tables.kernel, kKernelText, 0x20000000, rng);
  AddIrregularBlocks(tables.kernel, 0x20100000);
  AttributionStream generator(tables, 41);
  const std::vector<TraceRef> refs = generator.Generate(12000);

  ProfileOptions profile_options;
  profile_options.window_refs = kWindow;
  SweepConfig sweep_config;
  // Few frames, so pages alias in the physically indexed caches.
  sweep_config.page_map = [](uint32_t pid, uint32_t vpn) { return (vpn * 7 + pid) & 0x3fu; };
  sweep_config.icache = {{2, 64, 1024}, {4, 1024, 8192}, {16, 1024, 16384}, {64, 4096, 65536}};
  sweep_config.dcache = {{4, 1024, 8192}, {16, 2048, 32768}};
  sweep_config.tlb_max_entries = 64;

  ReferenceProfiler want_profiler(profile_options);
  WireSynthetic(want_profiler, tables);
  ReferenceSweep want_sweep(sweep_config);
  for (const TraceRef& ref : refs) {
    want_profiler.OnRef(ref);
    want_sweep.OnRef(ref);
  }
  const Profile want_profile = want_profiler.Finish();
  const std::string want_json = want_profile.CanonicalJson();

  // Fixed batches, and random ones that end runs anywhere.
  std::vector<size_t> batches = {1, 3, kRefBatchCapacity};
  for (int i = 0; i < 3; ++i) {
    batches.push_back(1 + rng.Below(64));
  }
  for (size_t batch : batches) {
    SCOPED_TRACE("batches of " + std::to_string(batch));
    TraceProfiler profiler(profile_options);
    WireSynthetic(profiler, tables);
    SweepEngine sweep(sweep_config);
    Deliver(profiler, refs, batch);
    Deliver(sweep, refs, batch);
    EXPECT_EQ(profiler.Finish().CanonicalJson(), want_json);
    ExpectSameSweep(sweep, want_sweep);
  }
  // A sweep with the TLB curve alone, as figure3-whatif runs it, and one
  // reference at a time through OnRef.
  SweepConfig curve_only;
  curve_only.page_map = sweep_config.page_map;
  curve_only.tlb_max_entries = 64;
  ReferenceSweep want_curve(curve_only);
  SweepEngine curve(curve_only);
  for (const TraceRef& ref : refs) {
    want_curve.OnRef(ref);
  }
  Deliver(curve, refs, kRefBatchCapacity);
  ExpectSameSweep(curve, want_curve);
  TraceProfiler per_ref(profile_options);
  WireSynthetic(per_ref, tables);
  for (const TraceRef& ref : refs) {
    per_ref.OnRef(ref);
  }
  EXPECT_EQ(per_ref.Finish().CanonicalJson(), want_json);

  // Not vacuous: every boundary the stream is built for occurs.
  const StreamEvents& events = generator.events();
  EXPECT_GT(events.nested_entries, 50u);
  EXPECT_GT(events.skipped_data, 200u);
  EXPECT_GT(events.irregular_runs, 200u);
  EXPECT_GT(AbsorbedFetches(refs), refs.size() / 3);
  size_t windows_closed_mid_run = 0;
  for (size_t i = kWindow; i < refs.size(); i += kWindow) {
    windows_closed_mid_run += FetchRunLength(&refs[i - 1], 2) == 2;
  }
  EXPECT_GT(windows_closed_mid_run, refs.size() / kWindow / 4);
  const ProfileTotals& totals = want_profile.totals;
  EXPECT_GT(totals.block_entries, 10000u);
  EXPECT_GT(totals.unattributed_insts, 1000u);
  EXPECT_GT(totals.unattributed_data, 1000u);
  EXPECT_GT(totals.idle_insts, 0u);
  EXPECT_GT(totals.kernel_insts, 0u);
  size_t irregular_blocks = 0;
  for (const BlockProfile& block : want_profile.blocks) {
    irregular_blocks += block.addr >= kIrregularText && block.pid == kKernelPid;
  }
  EXPECT_EQ(irregular_blocks, 5u);
  const SweepResult& sweep = want_sweep.Finish();
  EXPECT_GT(sweep.tlb.utlb_misses, 1000u);
  EXPECT_GT(sweep.tlb.ktlb_misses, 0u);
  StatsRegistry registry;
  want_sweep.RegisterStats(registry, "sweep.");
  EXPECT_GT(registry.Snapshot().CounterValue("sweep.uncached_reads"), 0u);
}

// The profiler indexes a space's blocks by their word-aligned leaders, so
// it rejects a misaligned leader, a span past the table bound, and a table
// added once references flow.
TEST(AnalysisOracle, ProfilerTablesMustBeIndexable) {
  TraceInfoTable misaligned;
  misaligned.Add(0x10000000, {0x00400002, 2, 0, {}, 4});
  TraceProfiler profiler;
  EXPECT_THROW(profiler.AddTable(1, &misaligned), InternalError);
  TraceInfoTable wide;
  wide.Add(0x10000000, {0x00400000, 2, 0, {}, 4});
  wide.Add(0x10000004, {0x00400000 + TraceInfoTable::kMaxKeySpanBytes, 2, 0, {}, 4});
  EXPECT_THROW(profiler.AddTable(1, &wide), InternalError);
  TraceInfoTable good;
  good.Add(0x10000000, {0x00400000, 2, 0, {}, 4});
  good.Add(0x10000004, {0x00400000 + TraceInfoTable::kMaxKeySpanBytes - 4, 2, 0, {}, 4});
  profiler.AddTable(1, &good);
  profiler.OnRef({0x00400000, TraceRef::kIfetch, 4, 1, false, false});
  EXPECT_THROW(profiler.AddTable(2, &good), InternalError);
  EXPECT_EQ(profiler.Finish().totals.block_entries, 1u);
}

}  // namespace
}  // namespace wrl
