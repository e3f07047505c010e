// Single-pass multi-configuration sweeps (Mattson et al. 1970; Hill &
// Smith 1989): price a whole family of memory-system geometries in ONE
// pass over the reconstructed reference stream instead of one replay per
// configuration.
//
// Two classic results carry the subsystem:
//
//   * Forest simulation for the direct-mapped, physically-indexed caches
//     of src/memsys.  For power-of-two line counts at a fixed line size,
//     set membership is nested: two line addresses that conflict in a
//     cache of 2^(b+1) lines (equal mod 2^(b+1)) also conflict in the
//     2^b-line cache, so a reference that hits at size 2^b hits at every
//     larger size.  Each reference therefore has one *threshold* level —
//     the smallest family member it hits in — and a single walk down the
//     per-level last-line tables yields exact hit/miss counts for every
//     size at once, bit-identical to what an independent
//     TraceDrivenSimulator replay at that geometry reports (the cache
//     contents of src/memsys are exactly "last line to touch this set":
//     reads fill on miss, write-through stores allocate nothing).
//
//   * LRU stack distances for fully-associative structures.  The stack
//     (inclusion) property makes the miss count of an LRU structure of
//     capacity C a suffix sum of the stack-distance histogram, so one
//     pass yields the exact capacity-miss curve for *every* capacity —
//     used for the TLB's compulsory+capacity curve and doubling as the
//     working-set/reuse-distance profile exported through wrlstats.
//
// The SweepEngine is a RefBatchSink, so it rides everything the analysis
// side already has: the experiment's live parser (on the parse thread when
// the transport is pipelined) and ReplayEngine configs over a capture.  It
// mirrors TraceDrivenSimulator's reference ordering exactly — one
// TlbSimulator (the family shares the TLB configuration; geometry changes
// cannot perturb it) synthesizes the UTLB-handler references into the
// cache stream *before* the triggering reference, as the per-config replay
// does — so family-point miss counts are exact, not sampled.  The sweep
// prices miss counts only.  A what-if configuration that needs time is a
// memory-system lane of the TraceDrivenSimulator that walks its stream
// (sim/predictor.h), which prices it exactly.
#ifndef WRLTRACE_SWEEP_SWEEP_H_
#define WRLTRACE_SWEEP_SWEEP_H_

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/predictor.h"
#include "sim/tlb_sim.h"
#include "stats/stats.h"
#include "trace/parser.h"

namespace wrl {

// ---- Forest simulation -------------------------------------------------

// Exact single-pass simulation of every direct-mapped cache with line size
// `line_bytes` and a power-of-two size in [min_size_bytes, max_size_bytes].
// All parameters must be powers of two (rejected loudly otherwise — a
// silent rounding would change which configurations the sweep prices).
class CacheForest {
 public:
  CacheForest(uint32_t line_bytes, uint32_t min_size_bytes, uint32_t max_size_bytes);

  // One read (instruction fetch or load) of physical address `paddr`.
  // Stores never touch the family: src/memsys is write-through with no
  // write allocation, so they cannot change any member's contents.
  void Access(uint32_t paddr) {
    const uint32_t line = paddr >> line_shift_;
    ++accesses_;
    // Walk up from the smallest level, filling each level that misses.
    // The first level that hits is the reference's threshold, and the walk
    // stops there: by induction over accesses, every larger level already
    // holds this line (a line held at level b is held at b+1, since any
    // line that evicted it from b+1 would have evicted it from b too), so
    // their fills would store what is already there.
    size_t offset = 0;
    for (unsigned level = 0; level < levels_; ++level) {
      const uint32_t index = line & ((1u << (min_bits_ + level)) - 1u);
      uint32_t& last = last_[offset + index];
      if (last == line) {
        ++hits_at_level_[level];
        return;
      }
      last = line;
      offset += size_t{1} << (min_bits_ + level);
    }
    ++cold_or_conflict_everywhere_;
  }
  // `count` reads at `paddr`, `paddr` + 4, ... inside one page: one Access
  // per line they touch (per read, for lines narrower than a word).  An
  // Access leaves its line at level 0, hit or fill, so each later read
  // into that line is a level-0 hit.
  void AccessRun(uint32_t paddr, uint32_t count) {
    const unsigned shift = line_shift_ < 2 ? 2 : line_shift_;
    const uint32_t last = paddr + 4 * (count - 1);
    const uint32_t lookups = (last >> shift) - (paddr >> shift) + 1;
    for (uint32_t i = 0; i < lookups; ++i) {
      Access(paddr + (i << shift));
    }
    accesses_ += count - lookups;
    hits_at_level_[0] += count - lookups;
  }

  // Exact miss count for the family member of `size_bytes` (must be in
  // the family; throws otherwise).
  uint64_t Misses(uint32_t size_bytes) const;

  uint64_t accesses() const { return accesses_; }
  uint32_t line_bytes() const { return line_bytes_; }
  uint32_t min_size_bytes() const { return min_size_bytes_; }
  uint32_t max_size_bytes() const { return max_size_bytes_; }
  // Every size in the family, smallest first.
  std::vector<uint32_t> FamilySizes() const;

 private:
  // Line addresses are paddr >> line_shift <= 2^30, far below the sentinel.
  static constexpr uint32_t kNoLine = 0xffffffffu;

  uint32_t line_bytes_;
  uint32_t min_size_bytes_;
  uint32_t max_size_bytes_;
  uint32_t line_shift_;
  unsigned min_bits_;  // log2(line count) of the smallest member.
  unsigned levels_;    // Family members (one per power of two).
  std::vector<uint32_t> last_;  // Concatenated per-level last-line tables.
  std::vector<uint64_t> hits_at_level_;
  uint64_t cold_or_conflict_everywhere_ = 0;
  uint64_t accesses_ = 0;
};

// ---- LRU stack distances -----------------------------------------------

// Exact stack-distance (reuse-distance) profile over an arbitrary key
// stream: one pass yields the miss count of a fully-associative LRU
// structure of every capacity.  The kTopOfStack most recent distinct keys
// sit in a small array in MRU order, so a reuse that shallow costs a short
// scan; deeper distances are computed with a Fenwick tree over the
// timestamps at which keys left that array (compacted periodically so
// memory stays proportional to the number of distinct keys, not stream
// length).
class StackDistanceProfiler {
 public:
  StackDistanceProfiler();

  // Touches `key`; returns its stack distance (0 = first touch).
  uint64_t Access(uint64_t key);
  // Stands for `count` more touches of the key the last Access touched:
  // it is the top of the stack, so each is a reuse at distance 1.
  void RepeatLastKey(uint64_t count);

  uint64_t accesses() const { return accesses_; }
  // First-touch (compulsory) misses — infinite stack distance.
  uint64_t cold_misses() const { return cold_misses_; }
  // Exact misses of an LRU structure with `capacity` slots (capacity 0 =
  // everything misses).
  uint64_t MissesAtCapacity(unsigned capacity) const;
  // distance_counts()[d] = references that hit at stack position d+1 (the
  // reuse-distance histogram; its length is the deepest reuse seen).
  const std::vector<uint64_t>& distance_counts() const { return distance_counts_; }
  uint64_t distinct_keys() const { return top_size_ + last_time_.size(); }

 private:
  // Size of the top-of-stack array.  On the kuseg page streams of the
  // Figure 3 Ultrix workloads at scale 0.1, at least 99.98% of accesses
  // have a stack distance of at most 8 in 11 of the 12 workloads, and
  // 93.4% in eqntott.
  static constexpr unsigned kTopOfStack = 8;

  void Record(uint64_t distance);
  void FenwickAdd(size_t pos, int delta);
  uint64_t FenwickPrefix(size_t pos) const;  // Sum of [0, pos].
  void Compact();

  // The top of the stack, most recent first; deeper keys are in the tree.
  // Keys enter the tree only as the array's oldest key spills, so every
  // array key is more recent than every tree key.
  std::array<uint64_t, kTopOfStack> top_{};
  unsigned top_size_ = 0;
  // Tree keys -> the timestamp at which each spilled.
  std::unordered_map<uint64_t, uint32_t> last_time_;
  std::vector<int32_t> fenwick_;  // 1-based; covers timestamps [0, window).
  size_t window_ = 0;
  uint32_t time_ = 0;
  uint64_t live_ = 0;  // Keys currently marked in the tree.
  std::vector<uint64_t> distance_counts_;
  uint64_t cold_misses_ = 0;
  uint64_t accesses_ = 0;
};

// ---- The sweep engine --------------------------------------------------

// One cache family: every power-of-two size in [min_size_bytes,
// max_size_bytes] at `line_bytes` lines.
struct CacheFamilySpec {
  uint32_t line_bytes = 0;
  uint32_t min_size_bytes = 0;
  uint32_t max_size_bytes = 0;
};

struct SweepConfig {
  // Never read: it remains only for the wrlbench benchmark, which still
  // sets it.
  MemSysConfig base;
  // The page map and TLB wiring that fix the (shared) reference stream.
  // The page map must be pure, as PredictorConfig::page_map documents.
  PageMapFn page_map;
  unsigned tlb_wired = Tlb::kWired;
  // Families priced for the I- and D-cache (each may hold several line
  // sizes; every family is walked in the same single pass).
  std::vector<CacheFamilySpec> icache;
  std::vector<CacheFamilySpec> dcache;
  // Capacity bound of the exported LRU TLB miss curve (0 = no curve).
  unsigned tlb_max_entries = 0;
};

struct SweepCachePoint {
  uint32_t line_bytes = 0;
  uint32_t size_bytes = 0;
  uint64_t misses = 0;
};

struct SweepResult {
  std::vector<SweepCachePoint> icache;
  std::vector<SweepCachePoint> dcache;
  // tlb_lru_misses[c-1] = exact misses of a c-entry fully-associative LRU
  // TLB over the kuseg reference stream (compulsory + capacity; the
  // random-replacement production TLB is priced by TlbSimulator instead).
  std::vector<uint64_t> tlb_lru_misses;
  uint64_t tlb_cold_misses = 0;
  uint64_t tlb_refs = 0;
  uint64_t refs = 0;              // Main-stream references consumed.
  uint64_t ifetches = 0;
  uint64_t synthesized_refs = 0;  // UTLB-handler refs folded into the walk.
  TlbSimStats tlb;                // The shared production-TLB simulation.
  // Family points priced (all cache sizes across all families).  The
  // harness divides points × refs by the pass wall time for the
  // sweep.mrefs_per_sec metric.
  size_t family_points = 0;
  uint64_t wall_us = 0;           // Filled by the harness (tee busy time).
};

// It walks the stream a step at a time, as TraceDrivenSimulator does: a
// fetch run (FetchRunLength) is one LRU-stack access, one TLB probe, and
// one forest lookup per I-cache line, and its other fetches are counted as
// the distance-1 and level-0 hits they would be, with results identical to
// a walk of one reference at a time (tests/analysis_oracle_test.cc).
class SweepEngine : public RefBatchSink {
 public:
  explicit SweepEngine(const SweepConfig& config);

  // A fetch run ends at the batch's end; any split of the stream gives
  // identical results.
  void OnRefBatch(const TraceRef* refs, size_t count) override;

  // Finalizes (idempotent) and returns the result.
  const SweepResult& Finish();

  // Exact miss counts for one family point; throws wrl::Error when the
  // geometry is not covered by any family.
  uint64_t IcacheMisses(uint32_t line_bytes, uint32_t size_bytes) const;
  uint64_t DcacheMisses(uint32_t line_bytes, uint32_t size_bytes) const;

  // Approximate timing for a geometry family point: the primary replay's
  // Prediction with the cache miss counts swapped for the point's exact
  // counts and the memory-stall total rebuilt as
  //   stalls = primary stalls + (Δicache + Δdcache misses) × read penalty,
  // with uncached stalls and the write-buffer history carried from the
  // primary run, and the stall delta split between user and kernel in the
  // primary's proportion, which is not the point's real split.  It remains
  // only for the wrlbench benchmark, which still calls it; exact timing
  // comes from a memory-system lane (TraceDrivenSimulator::AddMemorySystem).
  Prediction DerivePrediction(const Prediction& primary, const MemSysConfig& geometry) const;

  // Binds sweep counters and the reuse-distance histogram (filled by
  // Finish()) into `registry`; the engine must outlive snapshots.
  void RegisterStats(StatsRegistry& registry, const std::string& prefix = "sweep.");

 private:
  void CacheAccess(const TraceRef& ref);
  // The `count` fetches of the run `first` starts, in the I-cache forests.
  void CacheFetchRun(const TraceRef& first, uint32_t count);
  const CacheForest* FindForest(const std::vector<CacheForest>& forests, uint32_t line_bytes,
                                uint32_t size_bytes) const;

  SweepConfig config_;
  TlbSimulator tlb_;
  PageTranslator translator_;
  std::vector<CacheForest> iforests_;
  std::vector<CacheForest> dforests_;
  StackDistanceProfiler tlb_stack_;
  uint8_t last_user_asid_ = 0;
  Histogram reuse_hist_;  // Log-scale reuse distances (working-set shape).
  uint64_t refs_ = 0;
  uint64_t ifetches_ = 0;
  uint64_t synthesized_refs_ = 0;
  uint64_t uncached_reads_ = 0;
  bool finished_ = false;
  SweepResult result_;
};

}  // namespace wrl

#endif  // WRLTRACE_SWEEP_SWEEP_H_
