// The sweep engine's contract (src/sweep): ONE pass over the reference
// stream prices a whole family of configurations with miss counts
// bit-identical to what a dedicated TraceDrivenSimulator / exact-LRU
// replay at each configuration reports — against randomized oracles for
// the two core data structures, against real captured traces end to end,
// and through every delivery mode the harness has (synchronous, pipelined,
// streamed from a capture).  Degenerate families and non-power-of-two
// geometries must be rejected loudly, not rounded.
#include <iterator>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/bare_runtime.h"
#include "harness/experiment.h"
#include "harness/replay_engine.h"
#include "memsys/memsys.h"
#include "sim/predictor.h"
#include "sim/tlb_sim.h"
#include "support/error.h"
#include "support/rng.h"
#include "sweep/sweep.h"
#include "trace/parser.h"
#include "trace/trace_log.h"

namespace wrl {
namespace {

// ---- CacheForest vs DirectMappedCache ----------------------------------

TEST(CacheForest, MatchesDirectMappedCacheAtEveryFamilySize) {
  for (uint32_t line : {4u, 16u, 64u}) {
    CacheForest forest(line, 1024, 64 * 1024);
    std::vector<DirectMappedCache> caches;
    std::vector<uint64_t> misses;
    for (uint32_t size : forest.FamilySizes()) {
      caches.emplace_back(CacheConfig{size, line});
      misses.push_back(0);
    }
    Rng rng(7 + line);
    for (int i = 0; i < 200000; ++i) {
      // A mix of hot lines and cold sweeps, adversarial for set conflicts.
      uint32_t paddr = (i % 3 == 0) ? rng.Below(1u << 14) : rng.Below(1u << 24);
      forest.Access(paddr);
      for (size_t c = 0; c < caches.size(); ++c) {
        if (!caches[c].Access(paddr)) {
          ++misses[c];
        }
      }
    }
    const std::vector<uint32_t> sizes = forest.FamilySizes();
    for (size_t c = 0; c < sizes.size(); ++c) {
      SCOPED_TRACE(sizes[c]);
      EXPECT_EQ(forest.Misses(sizes[c]), misses[c]);
    }
  }
}

TEST(CacheForest, SinglePointFamilyIsJustOneCache) {
  CacheForest forest(16, 8192, 8192);
  DirectMappedCache cache(CacheConfig{8192, 16});
  uint64_t misses = 0;
  Rng rng(3);
  for (int i = 0; i < 50000; ++i) {
    uint32_t paddr = rng.Below(1u << 20);
    forest.Access(paddr);
    if (!cache.Access(paddr)) {
      ++misses;
    }
  }
  EXPECT_EQ(forest.FamilySizes(), std::vector<uint32_t>{8192});
  EXPECT_EQ(forest.Misses(8192), misses);
}

TEST(CacheForest, RejectsNonPowerOfTwoGeometryLoudly) {
  EXPECT_THROW(
      {
        try {
          CacheForest forest(16, 3000, 8192);
        } catch (const Error& e) {
          EXPECT_NE(std::string(e.what()).find("3000"), std::string::npos);
          EXPECT_NE(std::string(e.what()).find("power of two"), std::string::npos);
          throw;
        }
      },
      Error);
  EXPECT_THROW(CacheForest(12, 4096, 8192), Error);    // Line size.
  EXPECT_THROW(CacheForest(16, 4096, 40960), Error);   // Max size.
  EXPECT_THROW(CacheForest(16, 8192, 4096), Error);    // Inverted family.
  EXPECT_THROW(CacheForest(16, 8, 8192), Error);       // Size < line.
  CacheForest ok(16, 4096, 8192);
  EXPECT_THROW(ok.Misses(6000), Error);                // Non-pow2 query.
  EXPECT_THROW(ok.Misses(16384), Error);               // Outside the family.
}

// ---- StackDistanceProfiler vs a naive LRU oracle -----------------------

TEST(StackDistanceProfiler, MatchesNaiveLruStackWithCompaction) {
  StackDistanceProfiler profiler;
  std::list<uint64_t> stack;  // Front = most recent.
  Rng rng(42);
  // 9000 distinct keys over 120k accesses: the 4096-entry timestamp window
  // is exhausted many times over, so compaction is exercised mid-stream.
  uint64_t cold = 0;
  for (int i = 0; i < 120000; ++i) {
    uint64_t key = rng.Below(9000);
    uint64_t got = profiler.Access(key);
    uint64_t want = 0;
    uint64_t pos = 1;
    for (auto it = stack.begin(); it != stack.end(); ++it, ++pos) {
      if (*it == key) {
        want = pos;
        stack.erase(it);
        break;
      }
    }
    if (want == 0) {
      ++cold;
    }
    stack.push_front(key);
    ASSERT_EQ(got, want) << "access " << i << " key " << key;
  }
  EXPECT_EQ(profiler.cold_misses(), cold);
  EXPECT_EQ(profiler.distinct_keys(), stack.size());
  EXPECT_EQ(profiler.accesses(), 120000u);
}

TEST(StackDistanceProfiler, TopOfStackMatchesNaiveLruOnSkewedStream) {
  // The shape of a real kuseg page stream: mostly distances 1-8 (the
  // top-of-stack array), some just below it (9-16, the first tree
  // positions), some deep reuses and some cold keys.  Every non-array
  // access spills a key into the tree, often enough to compact it
  // repeatedly.
  StackDistanceProfiler profiler;
  std::list<uint64_t> stack;  // Front = most recent.
  std::vector<uint64_t> histogram;
  Rng rng(23);
  uint64_t next_key = 1000;
  uint64_t cold = 0;
  uint64_t spills = 0;
  constexpr int kAccesses = 150000;
  for (int i = 0; i < kAccesses; ++i) {
    const uint32_t draw = rng.Below(100);
    uint64_t want = 0;
    if (draw < 80) {
      want = 1 + rng.Below(8);
    } else if (draw < 90) {
      want = 9 + rng.Below(8);
    } else if (draw < 99) {
      want = 17 + rng.Below(2000);
    }
    if (want > stack.size()) {
      want = 0;
    }
    uint64_t key;
    if (want == 0) {
      key = next_key++;
      ++cold;
    } else {
      auto it = std::next(stack.begin(), static_cast<long>(want - 1));
      key = *it;
      stack.erase(it);
      if (histogram.size() < want) {
        histogram.resize(want, 0);
      }
      ++histogram[want - 1];
    }
    if ((want == 0 || want > 8) && stack.size() >= 8) {
      ++spills;
    }
    stack.push_front(key);
    ASSERT_EQ(profiler.Access(key), want) << "access " << i << " key " << key;
    ASSERT_EQ(profiler.distinct_keys(), stack.size()) << "access " << i;
  }
  // Under 4096 keys, the tree's stamp window never outgrows 8192 (twice
  // its keys, at least 4096), so this many spills fill it at least three
  // times.
  EXPECT_LT(stack.size(), 4096u);
  EXPECT_GT(spills, 3u * 8192u);
  EXPECT_EQ(profiler.cold_misses(), cold);
  EXPECT_EQ(profiler.accesses(), static_cast<uint64_t>(kAccesses));
  EXPECT_EQ(profiler.distance_counts(), histogram);
  for (unsigned capacity = 0; capacity <= histogram.size() + 1; ++capacity) {
    uint64_t misses = cold;
    for (size_t d = capacity; d < histogram.size(); ++d) {
      misses += histogram[d];
    }
    ASSERT_EQ(profiler.MissesAtCapacity(capacity), misses) << "capacity " << capacity;
  }
}

TEST(StackDistanceProfiler, CapacityCurveMatchesDirectLruSimulation) {
  // The suffix-sum curve must equal running a real capacity-C LRU
  // structure over the same stream, for every C probed.
  Rng rng(11);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 40000; ++i) {
    keys.push_back(rng.Below(600));
  }
  StackDistanceProfiler profiler;
  for (uint64_t key : keys) {
    profiler.Access(key);
  }
  for (unsigned capacity : {1u, 2u, 7u, 64u, 600u, 4096u}) {
    SCOPED_TRACE(capacity);
    std::list<uint64_t> lru;
    uint64_t misses = 0;
    for (uint64_t key : keys) {
      bool hit = false;
      for (auto it = lru.begin(); it != lru.end(); ++it) {
        if (*it == key) {
          lru.erase(it);
          hit = true;
          break;
        }
      }
      if (!hit) {
        ++misses;
        if (lru.size() == capacity) {
          lru.pop_back();
        }
      }
      lru.push_front(key);
    }
    EXPECT_EQ(profiler.MissesAtCapacity(capacity), misses);
  }
  // Monotone and bounded: more capacity never misses more; infinite
  // capacity leaves exactly the compulsory misses.
  EXPECT_GE(profiler.MissesAtCapacity(1), profiler.MissesAtCapacity(2));
  EXPECT_EQ(profiler.MissesAtCapacity(100000), profiler.cold_misses());
}

// ---- End to end over a real captured trace -----------------------------

const char* kBody = R"(
        .globl main
main:
        addiu $sp, $sp, -8
        sw   $ra, 4($sp)
        la   $t0, table
        li   $t1, 0
        li   $t2, 96
fill:   sll  $t3, $t1, 2
        addu $t3, $t0, $t3
        sw   $t1, 0($t3)
        addiu $t1, $t1, 1
        bne  $t1, $t2, fill
        nop
        li   $t1, 0
        li   $v0, 0
sum:    sll  $t3, $t1, 2
        addu $t3, $t0, $t3
        lw   $t4, 0($t3)
        addu $v0, $v0, $t4
        addiu $t1, $t1, 1
        bne  $t1, $t2, sum
        nop
        lw   $ra, 4($sp)
        jr   $ra
        addiu $sp, $sp, 8
        .data
table:  .space 384
)";

SweepConfig UnitSweepConfig() {
  SweepConfig config;
  config.icache.push_back({16, 1024, 16 * 1024});
  config.dcache.push_back({4, 1024, 16 * 1024});
  config.tlb_max_entries = 8;
  return config;
}

TEST(SweepEngine, FamilyPointsBitIdenticalToIndependentReplays) {
  BareBuild build = BuildBareTraced(kBody);
  BareTraceRun run = RunBareTraced(build);
  TraceLog log;
  log.Append(run.trace_words.data(), run.trace_words.size());
  ReplaySource source;
  source.log = &log;
  source.kernel_table = &build.table;
  ReplayEngine engine(std::move(source));

  SweepConfig sweep_config = UnitSweepConfig();
  std::vector<ReplayEngine::Config> configs;
  configs.push_back(
      {"sweep", [&sweep_config] { return std::make_unique<SweepEngine>(sweep_config); }});
  std::vector<ReplayEngine::Outcome> outcomes = engine.Run(configs);
  auto* sweep = static_cast<SweepEngine*>(outcomes[0].sink.get());
  const SweepResult& result = sweep->Finish();
  ASSERT_EQ(result.icache.size(), 5u);  // 1K..16K.
  ASSERT_EQ(result.dcache.size(), 5u);
  EXPECT_EQ(result.family_points, 10u);
  EXPECT_GT(result.refs, 0u);

  // Every family point against a dedicated TraceDrivenSimulator replay of
  // the identical capture at exactly that geometry.
  for (size_t i = 0; i < result.icache.size(); ++i) {
    SCOPED_TRACE(result.icache[i].size_bytes);
    PredictorConfig pc;
    pc.memsys.icache = {result.icache[i].size_bytes, result.icache[i].line_bytes};
    pc.memsys.dcache = {result.dcache[i].size_bytes, result.dcache[i].line_bytes};
    std::vector<ReplayEngine::Config> check;
    check.push_back({"check", [pc] { return std::make_unique<TraceDrivenSimulator>(pc); }});
    std::vector<ReplayEngine::Outcome> out = engine.Run(check);
    auto* sim = static_cast<TraceDrivenSimulator*>(out[0].sink.get());
    Prediction p = sim->Finish();
    EXPECT_EQ(p.memsys_stats.icache_misses, result.icache[i].misses);
    EXPECT_EQ(p.memsys_stats.dcache_misses, result.dcache[i].misses);
    // The shared TLB simulation is the replay's TLB simulation.
    EXPECT_EQ(p.utlb_misses, result.tlb.utlb_misses);
    EXPECT_EQ(p.synthesized_refs, result.synthesized_refs);
  }
}

// An exact fully-associative LRU TLB reference model, keyed exactly as the
// sweep keys its stack (ASID, virtual page).
class LruTlbOracle : public RefBatchSink {
 public:
  explicit LruTlbOracle(unsigned capacity) : capacity_(capacity) {}

  void OnRefBatch(const TraceRef* refs, size_t count) override {
    for (size_t i = 0; i < count; ++i) {
      const TraceRef& ref = refs[i];
      if (!InKuseg(ref.addr)) {
        continue;
      }
      uint8_t asid;
      if (ref.pid != kKernelPid) {
        asid = ref.pid;
        last_user_asid_ = ref.pid;
      } else {
        asid = last_user_asid_ == 0 ? 1 : last_user_asid_;
      }
      uint64_t key = (static_cast<uint64_t>(asid) << 20) | (ref.addr >> kPageShift);
      bool hit = false;
      for (auto it = lru_.begin(); it != lru_.end(); ++it) {
        if (*it == key) {
          lru_.erase(it);
          hit = true;
          break;
        }
      }
      if (!hit) {
        ++misses_;
        if (lru_.size() == capacity_) {
          lru_.pop_back();
        }
      }
      lru_.push_front(key);
    }
  }

  uint64_t misses() const { return misses_; }

 private:
  unsigned capacity_;
  std::list<uint64_t> lru_;
  uint64_t misses_ = 0;
  uint8_t last_user_asid_ = 0;
};

TEST(SweepEngine, TlbCurveMatchesExactLruReplays) {
  // A synthetic stream with real kuseg content: several processes walking
  // overlapping page sets, with kernel refs interleaved (attributed to the
  // last user context, as the production TlbSimulator attributes them).
  Rng rng(23);
  std::vector<TraceRef> refs;
  for (int i = 0; i < 60000; ++i) {
    TraceRef ref{};
    ref.kind = (i % 4 == 3) ? TraceRef::kLoad : TraceRef::kIfetch;
    ref.bytes = 4;
    uint32_t roll = rng.Below(100);
    if (roll < 10) {
      ref.pid = kKernelPid;
      ref.addr = (roll < 5) ? (kKseg0 + rng.Below(1u << 16))  // Unmapped.
                            : rng.Below(40) << kPageShift;    // Kernel in kuseg.
    } else {
      ref.pid = static_cast<uint8_t>(1 + rng.Below(3));
      ref.addr = (rng.Below(40) << kPageShift) + rng.Below(1u << kPageShift);
    }
    refs.push_back(ref);
  }

  SweepConfig sweep_config = UnitSweepConfig();
  SweepEngine sweep(sweep_config);
  std::vector<std::unique_ptr<LruTlbOracle>> oracles;
  for (unsigned capacity : {1u, 2u, 4u, 8u}) {
    oracles.push_back(std::make_unique<LruTlbOracle>(capacity));
  }
  sweep.OnRefBatch(refs.data(), refs.size());
  for (auto& oracle : oracles) {
    oracle->OnRefBatch(refs.data(), refs.size());
  }
  const SweepResult& result = sweep.Finish();
  ASSERT_EQ(result.tlb_lru_misses.size(), 8u);
  size_t oracle = 0;
  for (unsigned capacity : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(capacity);
    EXPECT_EQ(result.tlb_lru_misses[capacity - 1], oracles[oracle++]->misses());
  }
  EXPECT_GT(result.tlb_refs, 0u);
  EXPECT_GT(result.tlb_cold_misses, 0u);
  // The curve is monotone in capacity.
  for (size_t c = 1; c < result.tlb_lru_misses.size(); ++c) {
    EXPECT_LE(result.tlb_lru_misses[c], result.tlb_lru_misses[c - 1]);
  }
}

// ---- The memoized page-map translation ---------------------------------

// The analysis translation with no memo: every kuseg reference calls the
// page map afresh.
uint32_t UnmemoizedTranslate(const TraceRef& ref, const PageMapFn& page_map) {
  const uint32_t vaddr = ref.addr;
  if (InKseg0(vaddr) || InKseg1(vaddr)) {
    return vaddr & 0x1fffffffu;
  }
  if (InKseg2(vaddr)) {
    return 0x00600000u | (vaddr & 0x001ff000u) | (vaddr & 0xfffu);
  }
  const uint32_t pid = ref.pid == kKernelPid ? 1 : ref.pid;
  return (page_map(pid, vaddr >> 12) << 12) | (vaddr & 0xfffu);
}

// The cache-indexing halves of TraceDrivenSimulator (one MemorySystem,
// timed the same way) and SweepEngine (one forest per family), both fed
// through UnmemoizedTranslate in the consumers' own order: synthesized
// handler refs first, then the triggering reference.
class UnmemoizedCacheReference : public RefBatchSink {
 public:
  UnmemoizedCacheReference(const PageMapFn& page_map, const SweepConfig& sweep)
      : memsys(MemSysConfig{}), page_map_(page_map), tlb_(sweep.tlb_wired) {
    for (const CacheFamilySpec& spec : sweep.icache) {
      iforests.emplace_back(spec.line_bytes, spec.min_size_bytes, spec.max_size_bytes);
    }
    for (const CacheFamilySpec& spec : sweep.dcache) {
      dforests.emplace_back(spec.line_bytes, spec.min_size_bytes, spec.max_size_bytes);
    }
    tlb_.SetSynthesizedSink(&synth_);
  }

  void OnRefBatch(const TraceRef* refs, size_t count) override {
    for (size_t i = 0; i < count; ++i) {
      tlb_.OnRef(refs[i]);
      Access(refs[i]);
    }
  }

  MemorySystem memsys;
  uint64_t mem_stall_cycles = 0;
  std::vector<CacheForest> iforests;
  std::vector<CacheForest> dforests;

 private:
  void Access(const TraceRef& ref) {
    const uint32_t paddr = UnmemoizedTranslate(ref, page_map_);
    const bool uncached = InKseg1(ref.addr);
    uint64_t stall = 0;
    switch (ref.kind) {
      case TraceRef::kIfetch:
        stall = uncached ? memsys.UncachedLoad(paddr, now_) : memsys.Fetch(paddr, now_);
        break;
      case TraceRef::kLoad:
        stall = uncached ? memsys.UncachedLoad(paddr, now_) : memsys.Load(paddr, now_);
        break;
      case TraceRef::kStore:
        stall = uncached ? memsys.UncachedStore(paddr, now_) : memsys.Store(paddr, now_);
        break;
    }
    mem_stall_cycles += stall;
    now_ += stall + (ref.kind == TraceRef::kIfetch ? 1 : 0);
    if (!uncached && ref.kind != TraceRef::kStore) {
      for (CacheForest& forest : ref.kind == TraceRef::kIfetch ? iforests : dforests) {
        forest.Access(paddr);
      }
    }
  }

  PageMapFn page_map_;
  TlbSimulator tlb_;
  RefFnSink synth_{[this](const TraceRef& ref) { Access(ref); }};
  uint64_t now_ = 0;
};

TEST(PageTranslator, ConsumersIndexCachesExactlyAsUnmemoizedTranslation) {
  // A pid-dependent pure page map: one VPN maps to a different frame under
  // every pid, so a memo hit for the wrong pid reindexes the caches.
  uint64_t calls = 0;
  PageMapFn page_map = [&calls](uint32_t pid, uint32_t vpn) {
    ++calls;
    return (vpn * 40503u + pid * 7919u) & 0x3fffu;
  };
  // Three processes over one 700-page layout, with kernel references into
  // kuseg (translated as pid 1): 2100 (pid, VPN) keys, so keys collide in
  // the 1024-slot memo, and the same VPN recurs under every pid.
  Rng rng(37);
  std::vector<TraceRef> refs;
  uint8_t pid = 1;
  uint32_t recent[16] = {};
  for (int i = 0; i < 300000; ++i) {
    if (rng.Below(300) == 0) {
      pid = static_cast<uint8_t>(1 + rng.Below(3));
    }
    uint32_t& page = recent[rng.Below(16)];
    if (page == 0 || rng.Below(8) == 0) {
      page = 0x00400u + rng.Below(700);
    }
    const uint32_t roll = rng.Below(100);
    const TraceRef::Kind kind = roll < 60   ? TraceRef::kIfetch
                                : roll < 85 ? TraceRef::kLoad
                                            : TraceRef::kStore;
    const uint32_t addr = (page << 12) + rng.Below(kPageBytes / 4) * 4;
    if (roll % 10 == 0) {
      refs.push_back({addr, kind, 4, kKernelPid, true, false});
    } else if (roll % 10 == 1) {
      refs.push_back({kKseg0 + rng.Below(1u << 16) * 4, kind, 4, kKernelPid, true, false});
    } else {
      refs.push_back({addr, kind, 4, pid, false, false});
    }
  }

  SweepConfig sweep_config;
  sweep_config.page_map = page_map;
  sweep_config.icache.push_back({16, 1024, 64 * 1024});
  sweep_config.dcache.push_back({4, 1024, 64 * 1024});
  PredictorConfig predictor_config;
  predictor_config.page_map = page_map;

  UnmemoizedCacheReference reference(page_map, sweep_config);
  reference.OnRefBatch(refs.data(), refs.size());
  const uint64_t unmemoized_calls = calls;

  calls = 0;
  TraceDrivenSimulator sim(predictor_config);
  sim.OnRefBatch(refs.data(), refs.size());
  const Prediction p = sim.Finish();
  const MemSysStats& want = reference.memsys.stats();
  EXPECT_EQ(p.memsys_stats.inst_fetches, want.inst_fetches);
  EXPECT_EQ(p.memsys_stats.icache_misses, want.icache_misses);
  EXPECT_EQ(p.memsys_stats.data_reads, want.data_reads);
  EXPECT_EQ(p.memsys_stats.dcache_misses, want.dcache_misses);
  EXPECT_EQ(p.memsys_stats.data_writes, want.data_writes);
  EXPECT_EQ(p.memsys_stats.wb_stall_cycles, want.wb_stall_cycles);
  EXPECT_EQ(p.memsys_stats.uncached_reads, want.uncached_reads);
  EXPECT_EQ(p.memsys_stats.uncached_writes, want.uncached_writes);
  EXPECT_EQ(p.mem_stall_cycles, reference.mem_stall_cycles);
  // The memo, not the page map, answered most references.
  EXPECT_LT(calls, unmemoized_calls / 4);

  SweepEngine sweep(sweep_config);
  sweep.OnRefBatch(refs.data(), refs.size());
  sweep.Finish();
  for (const CacheForest& forest : reference.iforests) {
    for (uint32_t size : forest.FamilySizes()) {
      SCOPED_TRACE(size);
      EXPECT_EQ(sweep.IcacheMisses(forest.line_bytes(), size), forest.Misses(size));
    }
  }
  for (const CacheForest& forest : reference.dforests) {
    for (uint32_t size : forest.FamilySizes()) {
      SCOPED_TRACE(size);
      EXPECT_EQ(sweep.DcacheMisses(forest.line_bytes(), size), forest.Misses(size));
    }
  }
}

// ---- Through the experiment harness, in every delivery mode ------------

WorkloadSpec UnitWorkload() {
  WorkloadSpec w;
  w.name = "unit";
  w.description = "tiny compute kernel";
  w.source = kBody;
  return w;
}

ExperimentOptions SweepOptionsBase() {
  ExperimentOptions options;
  options.sweep.icache.push_back({16, 1024, 16 * 1024});
  options.sweep.dcache.push_back({4, 1024, 16 * 1024});
  options.sweep.tlb_max_entries = 8;
  return options;
}

void ExpectSameSweep(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.icache.size(), b.icache.size());
  for (size_t i = 0; i < a.icache.size(); ++i) {
    EXPECT_EQ(a.icache[i].size_bytes, b.icache[i].size_bytes);
    EXPECT_EQ(a.icache[i].misses, b.icache[i].misses);
  }
  ASSERT_EQ(a.dcache.size(), b.dcache.size());
  for (size_t i = 0; i < a.dcache.size(); ++i) {
    EXPECT_EQ(a.dcache[i].misses, b.dcache[i].misses);
  }
  EXPECT_EQ(a.tlb_lru_misses, b.tlb_lru_misses);
  EXPECT_EQ(a.tlb_cold_misses, b.tlb_cold_misses);
  EXPECT_EQ(a.tlb_refs, b.tlb_refs);
  EXPECT_EQ(a.refs, b.refs);
  EXPECT_EQ(a.ifetches, b.ifetches);
  EXPECT_EQ(a.synthesized_refs, b.synthesized_refs);
  EXPECT_EQ(a.tlb.utlb_misses, b.tlb.utlb_misses);
  EXPECT_EQ(a.tlb.user_refs, b.tlb.user_refs);
}

// The live sweep, synchronous and behind the trace pipeline.
TEST(SweepExperiment, LiveCaptureAndPipelinedModesAreBitIdentical) {
  WorkloadSpec w = UnitWorkload();

  // The reference: live analysis, synchronous transport, batched.
  ExperimentOptions live = SweepOptionsBase();
  live.pipeline = false;
  ExperimentResult reference = RunExperiment(w, live);
  ASSERT_TRUE(reference.sweep_ran);
  EXPECT_GT(reference.sweep.refs, 0u);
  EXPECT_EQ(reference.sweep.family_points, 10u);

  {
    SCOPED_TRACE("pipelined (WRL_PIPELINE=1 equivalent)");
    ExperimentOptions options = SweepOptionsBase();
    options.pipeline = true;
    ExperimentResult result = RunExperiment(w, options);
    ASSERT_TRUE(result.sweep_ran);
    ExpectSameSweep(result.sweep, reference.sweep);
  }
}

// A live sweep rides the analysis tee behind the parser during the traced
// run, and the tee times it there too: its throughput is real, not 0.
TEST(SweepExperiment, LiveSweepReportsItsBusyTime) {
  ExperimentResult result = RunExperiment(UnitWorkload(), SweepOptionsBase());
  ASSERT_TRUE(result.sweep_ran);
  EXPECT_GT(result.sweep.wall_us, 0u);
  EXPECT_GT(result.sweep_mrefs_per_sec, 0.0);
}

// ---- Geometry-only replay variants are absorbed by the sweep -----------

TEST(SweepExperiment, GeometryOnlyVariantsAreSweptWithExactMissCounts) {
  WorkloadSpec w = UnitWorkload();

  ReplayVariant geometry;
  geometry.name = "cache8k";
  geometry.memsys.icache.size_bytes = 8 * 1024;
  geometry.memsys.dcache.size_bytes = 8 * 1024;
  ReplayVariant slowmem;
  slowmem.name = "slowmem";
  slowmem.memsys.read_miss_penalty = 30;

  // Without the sweep: two dedicated replays — the ground truth.
  ExperimentOptions plain;
  plain.replay_variants = {geometry, slowmem};
  ExperimentResult truth = RunExperiment(w, plain);
  ASSERT_EQ(truth.replays.size(), 2u);
  EXPECT_FALSE(truth.replays[0].swept);
  EXPECT_FALSE(truth.replays[1].swept);

  // With the sweep: the geometry-only variant is priced by the one pass
  // (exact miss counts, derived timing); slowmem still replays and stays
  // bit-identical to its dedicated replay above.
  ExperimentOptions swept;
  swept.replay_variants = {geometry, slowmem};
  swept.sweep.enabled = true;
  ExperimentResult result = RunExperiment(w, swept);
  ASSERT_TRUE(result.sweep_ran);
  ASSERT_EQ(result.replays.size(), 2u);
  EXPECT_EQ(result.replays[0].name, "cache8k");
  EXPECT_TRUE(result.replays[0].swept);
  EXPECT_EQ(result.replays[1].name, "slowmem");
  EXPECT_FALSE(result.replays[1].swept);

  EXPECT_EQ(result.replays[0].prediction.memsys_stats.icache_misses,
            truth.replays[0].prediction.memsys_stats.icache_misses);
  EXPECT_EQ(result.replays[0].prediction.memsys_stats.dcache_misses,
            truth.replays[0].prediction.memsys_stats.dcache_misses);
  EXPECT_EQ(result.replays[0].prediction.utlb_misses, truth.replays[0].prediction.utlb_misses);

  EXPECT_EQ(result.replays[1].prediction.memsys_stats.icache_misses,
            truth.replays[1].prediction.memsys_stats.icache_misses);
  EXPECT_EQ(result.replays[1].prediction.mem_stall_cycles,
            truth.replays[1].prediction.mem_stall_cycles);

  // The primary prediction is untouched by the sweep riding alongside.
  EXPECT_EQ(result.prediction.mem_stall_cycles, truth.prediction.mem_stall_cycles);
  EXPECT_EQ(result.prediction.utlb_misses, truth.prediction.utlb_misses);
}

TEST(SweepExperiment, RejectsNonPowerOfTwoFamilyLoudly) {
  WorkloadSpec w = UnitWorkload();
  ExperimentOptions options;
  options.sweep.icache.push_back({16, 3000, 8192});
  EXPECT_THROW(RunExperiment(w, options), Error);
}

}  // namespace
}  // namespace wrl
