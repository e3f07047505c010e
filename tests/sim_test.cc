// Unit tests for the analysis-side simulators: the TLB model, the
// trace-driven memory-system simulation, and the time predictor's formula.
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "sim/predictor.h"
#include "sim/tlb_sim.h"
#include "support/error.h"
#include "support/rng.h"

namespace wrl {
namespace {

TraceRef UserLoad(uint32_t addr, uint8_t pid = 1) {
  return {addr, TraceRef::kLoad, 4, pid, false, false};
}
TraceRef UserFetch(uint32_t addr, uint8_t pid = 1) {
  return {addr, TraceRef::kIfetch, 4, pid, false, false};
}

TEST(TlbSimulator, FirstTouchMissesOnly) {
  TlbSimulator tlb;
  EXPECT_TRUE(tlb.OnRef(UserLoad(0x00400000)));
  EXPECT_FALSE(tlb.OnRef(UserLoad(0x00400010)));
  EXPECT_FALSE(tlb.OnRef(UserLoad(0x00400ffc)));
  EXPECT_TRUE(tlb.OnRef(UserLoad(0x00401000)));
  EXPECT_EQ(tlb.stats().utlb_misses, 2u);
}

TEST(TlbSimulator, UnmappedSegmentsBypass) {
  TlbSimulator tlb;
  EXPECT_FALSE(tlb.OnRef({0x80123456, TraceRef::kLoad, 4, kKernelPid, true, false}));
  EXPECT_FALSE(tlb.OnRef({0xa0000010, TraceRef::kLoad, 4, kKernelPid, true, false}));
  EXPECT_EQ(tlb.stats().utlb_misses, 0u);
}

TEST(TlbSimulator, Kseg2CountsAsKtlb) {
  TlbSimulator tlb;
  tlb.OnRef({0xc0200000, TraceRef::kLoad, 4, kKernelPid, true, false});
  EXPECT_EQ(tlb.stats().ktlb_misses, 1u);
  tlb.OnRef({0xc0200100, TraceRef::kLoad, 4, kKernelPid, true, false});
  EXPECT_EQ(tlb.stats().ktlb_misses, 1u);  // Same page: now cached.
}

TEST(TlbSimulator, AsidsIsolateProcesses) {
  TlbSimulator tlb;
  EXPECT_TRUE(tlb.OnRef(UserLoad(0x00400000, 1)));
  tlb.OnRef(UserFetch(0x10000000, 1));  // Advance the replacement counter so
  tlb.OnRef(UserFetch(0x10000004, 1));  // the next refill picks another slot.
  EXPECT_TRUE(tlb.OnRef(UserLoad(0x00400000, 2)));  // Other ASID misses too.
  tlb.OnRef(UserFetch(0x10000008, 1));
  EXPECT_FALSE(tlb.OnRef(UserLoad(0x00400000, 1)));
  EXPECT_FALSE(tlb.OnRef(UserLoad(0x00400000, 2)));
}

TEST(TlbSimulator, CapacityEvictions) {
  TlbSimulator tlb;
  // Touch far more pages than the 64 entries hold, twice.
  for (int round = 0; round < 2; ++round) {
    for (uint32_t p = 0; p < 256; ++p) {
      tlb.OnRef(UserLoad(0x00400000 + p * kPageBytes));
      tlb.OnRef(UserFetch(0x10000000));  // Advance the random counter.
    }
  }
  // Round 2 must miss heavily again (working set >> capacity).
  EXPECT_GT(tlb.stats().utlb_misses, 300u);
}

TEST(TlbSimulator, SynthesizesHandlerRefs) {
  TlbSimulator tlb;
  ASSERT_TRUE(tlb.OnRef(UserLoad(0x00400000, 3)));
  const auto& synth = tlb.handler();
  ASSERT_EQ(synth.size(), TlbSimulator::kHandlerInstructions + 1u);
  for (unsigned i = 0; i < TlbSimulator::kHandlerInstructions; ++i) {
    EXPECT_EQ(synth[i].kind, TraceRef::kIfetch);
    EXPECT_EQ(synth[i].addr, kVecUtlbMiss + 4 * i);
  }
  const TraceRef& pte = synth.back();
  EXPECT_EQ(pte.kind, TraceRef::kLoad);
  // PTE address: kseg2 + pid*2MB + vpn*4.
  EXPECT_EQ(pte.addr, 0xc0000000u + (3u << 21) + ((0x00400000u >> 12) << 2));
}

// The TLB simulator's contract without its lookup hint: every lookup scans
// the whole TLB with Tlb::Lookup.  Misses, refills and synthesized handler
// batches follow the same rules as TlbSimulator::OnRef.
class ScanningTlbReference {
 public:
  explicit ScanningTlbReference(unsigned wired) : tlb_(wired) {}

  bool OnRef(const TraceRef& ref) {
    if (ref.kind == TraceRef::kIfetch) {
      ++instruction_counter_;
    }
    const uint32_t vaddr = ref.addr;
    if (InKseg0(vaddr) || InKseg1(vaddr)) {
      return false;
    }
    if (InKseg2(vaddr)) {
      const uint8_t asid = ref.pid == kKernelPid ? 0 : ref.pid;
      if (!tlb_.Lookup(vaddr, asid)) {
        ++stats.ktlb_misses;
        tlb_.entry(tlb_.Random(instruction_counter_)) = {
            MakeEntryHi(vaddr, asid), MakeEntryLo(vaddr & 0x0ffff000u, true, true, true)};
      }
      return false;
    }
    ++stats.user_refs;
    uint8_t asid;
    if (ref.pid != kKernelPid) {
      asid = ref.pid;
      last_user_asid_ = ref.pid;
    } else {
      asid = last_user_asid_ == 0 ? 1 : last_user_asid_;
    }
    const std::optional<unsigned> index = tlb_.Lookup(vaddr, asid);
    if (index && tlb_.entry(*index).valid()) {
      return false;
    }
    ++stats.utlb_misses;
    tlb_.entry(tlb_.Random(instruction_counter_)) = {MakeEntryHi(vaddr, asid),
                                                      MakeEntryLo(0, true, true, false)};
    std::vector<TraceRef> handler;
    for (unsigned i = 0; i < TlbSimulator::kHandlerInstructions; ++i) {
      handler.push_back({kVecUtlbMiss + 4 * i, TraceRef::kIfetch, 4, kKernelPid, true, false});
    }
    handler.push_back({kKseg2 + (uint32_t{asid} << 21) + ((vaddr >> 12) << 2), TraceRef::kLoad, 4,
                       kKernelPid, true, false});
    batches.push_back(handler);
    return true;
  }

  TlbSimStats stats;
  std::vector<std::vector<TraceRef>> batches;

 private:
  Tlb tlb_;
  uint64_t instruction_counter_ = 0;
  uint8_t last_user_asid_ = 0;
};

bool SameRef(const TraceRef& a, const TraceRef& b) {
  return a.addr == b.addr && a.kind == b.kind && a.bytes == b.bytes && a.pid == b.pid &&
         a.kernel == b.kernel && a.idle == b.idle;
}

// A seeded system-like stream: three processes sharing one page layout
// (so the same VPN recurs under every ASID), over more pages than the TLB
// holds, mostly revisiting recent pages as real traces do; kernel
// references into kuseg (attributed to the last user ASID), to a few kseg2
// page-table pages, and to unmapped kseg0/kseg1.
std::vector<TraceRef> SystemLikeStream(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<TraceRef> refs;
  uint8_t pid = 1;
  uint32_t recent[8] = {};
  for (size_t i = 0; i < count; ++i) {
    if (rng.Below(500) == 0) {
      pid = static_cast<uint8_t>(1 + rng.Below(3));
    }
    const uint32_t roll = rng.Below(100);
    const uint32_t offset = rng.Below(kPageBytes / 4) * 4;
    const TraceRef::Kind kind = roll % 4 == 0   ? TraceRef::kLoad
                                : roll % 4 == 1 ? TraceRef::kStore
                                                : TraceRef::kIfetch;
    if (roll < 6) {
      refs.push_back({(recent[rng.Below(8)] << 12) + offset, kind, 4, kKernelPid, true, false});
    } else if (roll < 9) {
      refs.push_back({kKseg2 + (rng.Below(12) << 12) + offset, TraceRef::kLoad, 4, kKernelPid,
                      true, false});
    } else if (roll < 12) {
      refs.push_back({(roll < 11 ? kKseg0 : kKseg1) + rng.Below(1u << 20) * 4, kind, 4,
                      kKernelPid, true, false});
    } else {
      uint32_t& slot = recent[rng.Below(8)];
      if (slot == 0 || rng.Below(20) == 0) {
        // A fresh page: text, data or stack, 160 pages in all.
        const uint32_t region = rng.Below(3);
        slot = region == 0   ? 0x00400u + rng.Below(64)
               : region == 1 ? 0x10000u + rng.Below(64)
                             : 0x7ffffu - rng.Below(32);
      }
      refs.push_back({(slot << 12) + offset, kind, 4, pid, false, false});
    }
  }
  return refs;
}

TEST(TlbSimulator, HintedLookupsMatchAnAlwaysScanningReference) {
  for (unsigned wired : {8u, 16u}) {
    SCOPED_TRACE(wired);
    TlbSimulator tlb(wired);
    // Each miss's synthesized handler, recorded whole.
    std::vector<std::vector<TraceRef>> synthesized;
    ScanningTlbReference reference(wired);
    const std::vector<TraceRef> refs = SystemLikeStream(41 + wired, 200000);
    for (size_t i = 0; i < refs.size(); ++i) {
      const bool missed = tlb.OnRef(refs[i]);
      ASSERT_EQ(missed, reference.OnRef(refs[i])) << "reference " << i;
      if (missed) {
        synthesized.emplace_back(tlb.handler().begin(), tlb.handler().end());
      }
    }
    EXPECT_EQ(tlb.stats().user_refs, reference.stats.user_refs);
    EXPECT_EQ(tlb.stats().utlb_misses, reference.stats.utlb_misses);
    EXPECT_EQ(tlb.stats().ktlb_misses, reference.stats.ktlb_misses);
    ASSERT_EQ(synthesized.size(), reference.batches.size());
    for (size_t b = 0; b < synthesized.size(); ++b) {
      ASSERT_EQ(synthesized[b].size(), reference.batches[b].size());
      for (size_t r = 0; r < synthesized[b].size(); ++r) {
        ASSERT_TRUE(SameRef(synthesized[b][r], reference.batches[b][r]))
            << "batch " << b << " ref " << r;
      }
    }
    // The stream exercises both paths: mostly hits, yet thousands of
    // capacity and cross-ASID misses, and some kseg2 refills.
    EXPECT_GT(reference.stats.utlb_misses, 2000u);
    EXPECT_LT(reference.stats.utlb_misses, reference.stats.user_refs / 4);
    EXPECT_GT(reference.stats.ktlb_misses, 12u);
  }
}

TEST(Predictor, CountsAndFormula) {
  PredictorConfig config;
  config.dilation = 15.0;
  config.page_map = [](uint32_t, uint32_t vpn) { return vpn; };  // Identity.
  TraceDrivenSimulator sim(config);
  // 10 plain instructions + 2 idle instructions.
  for (int i = 0; i < 10; ++i) {
    sim.OnRef({0x00400000u + 4 * i, TraceRef::kIfetch, 4, 1, false, false});
  }
  for (int i = 0; i < 2; ++i) {
    sim.OnRef({0x80001000u + 4 * i, TraceRef::kIfetch, 4, kKernelPid, true, true});
  }
  Prediction p = sim.Finish();
  EXPECT_EQ(p.instructions, 12u);
  EXPECT_EQ(p.idle_instructions, 2u);
  EXPECT_EQ(p.user_instructions, 10u);
  // predicted = (12-2) + memstalls + 0 + 2*15
  EXPECT_DOUBLE_EQ(p.PredictedCycles(),
                   10.0 + static_cast<double>(p.mem_stall_cycles) + 30.0);
}

TEST(Predictor, ArithStallsFromTextImage) {
  Executable exe;
  exe.text_base = 0x00400000;
  // mult, then addu.
  uint32_t mult = EncodeRType(Op::kMult, kT0, kT1, 0, 0);
  uint32_t addu = EncodeRType(Op::kAddu, kT0, kT1, kT2, 0);
  for (uint32_t w : {mult, addu}) {
    for (int i = 0; i < 4; ++i) {
      exe.text.push_back(static_cast<uint8_t>(w >> (8 * i)));
    }
  }
  PredictorConfig config;
  config.page_map = [](uint32_t, uint32_t vpn) { return vpn; };
  TraceDrivenSimulator sim(config);
  sim.AddTextImage(exe);
  sim.OnRef({0x00400000, TraceRef::kIfetch, 4, 1, false, false});
  sim.OnRef({0x00400004, TraceRef::kIfetch, 4, 1, false, false});
  Prediction p = sim.Finish();
  EXPECT_EQ(p.arith_stall_cycles, ArithStallCycles(Op::kMult));
}

TEST(Predictor, ArithStallsAtTheEdgesOfATextImage) {
  Executable exe;
  exe.text_base = 0x00400000;
  const uint32_t div = EncodeRType(Op::kDiv, kT0, kT1, 0, 0);
  const uint32_t addu = EncodeRType(Op::kAddu, kT0, kT1, kT2, 0);
  const uint32_t mult = EncodeRType(Op::kMult, kT0, kT1, 0, 0);
  for (uint32_t w : {div, addu, addu, mult}) {
    for (int i = 0; i < 4; ++i) {
      exe.text.push_back(static_cast<uint8_t>(w >> (8 * i)));
    }
  }
  PredictorConfig config;
  TraceDrivenSimulator sim(config);
  sim.AddTextImage(exe);
  auto stall_at = [&sim](uint32_t addr) {
    const uint64_t before = sim.Finish().arith_stall_cycles;
    sim.OnRef(UserFetch(addr));
    return sim.Finish().arith_stall_cycles - before;
  };
  EXPECT_EQ(stall_at(0x00400000), ArithStallCycles(Op::kDiv));   // First word.
  EXPECT_EQ(stall_at(0x0040000c), ArithStallCycles(Op::kMult));  // Last word.
  EXPECT_EQ(stall_at(0x00400010), 0u);                           // One past the end.
  EXPECT_EQ(stall_at(0x003ffffc), 0u);                           // One before the base.
  // An address whose offset from the base would wrap a 32-bit end bound.
  EXPECT_EQ(stall_at(0xfffffffc), 0u);
}

TEST(Predictor, PageMapDrivesPhysicalIndexing) {
  // Two VPNs that collide in the cache only under one of two mappings.
  MemSysConfig small;
  small.dcache = {8192, 16};  // 2-page cache: frame parity selects the half.
  auto run = [&](bool collide) {
    PredictorConfig config;
    config.memsys = small;
    // Colliding mapping: distinct frames with equal cache index (0x100 and
    // 0x102 both land in the even half); benign mapping: adjacent frames.
    config.page_map = [collide](uint32_t, uint32_t vpn) {
      return collide ? ((vpn & 1) ? 0x102u : 0x100u) : 0x100u + (vpn & 1);
    };
    TraceDrivenSimulator sim(config);
    // Pre-warm the TLB (with the replacement counter advancing) so the
    // measurement loop sees pure cache behavior, not synthesized refills.
    sim.OnRef(UserLoad(0x00400000));
    sim.OnRef(UserFetch(0x10000000));
    sim.OnRef(UserFetch(0x10000004));
    sim.OnRef(UserLoad(0x00401000));
    uint64_t warm = sim.Finish().memsys_stats.dcache_misses;
    for (int i = 0; i < 50; ++i) {
      sim.OnRef(UserLoad(0x00400000));
      sim.OnRef(UserLoad(0x00401000));
    }
    return sim.Finish().memsys_stats.dcache_misses - warm;
  };
  EXPECT_GT(run(true), 3 * (run(false) + 1));
}

TEST(Predictor, SynthesizedHandlerRefsAreSimulated) {
  PredictorConfig config;
  config.page_map = [](uint32_t, uint32_t vpn) { return vpn; };
  TraceDrivenSimulator sim(config);
  sim.OnRef(UserLoad(0x00400000));  // Miss -> synthesizes handler refs.
  Prediction p = sim.Finish();
  EXPECT_EQ(p.synthesized_refs, TlbSimulator::kHandlerInstructions + 1u);
  EXPECT_EQ(p.utlb_misses, 1u);
  // The handler fetches hit the instruction cache path.
  EXPECT_GE(p.memsys_stats.inst_fetches, TlbSimulator::kHandlerInstructions);
  // The handler is charged in the mode of the reference that missed: its
  // cold misses are user stalls here, beside the load's own miss.
  const MemSysConfig memsys;
  EXPECT_GT(p.user_stall_cycles, memsys.read_miss_penalty);
  EXPECT_EQ(p.kernel_stall_cycles, 0u);

  // A kernel reference into a fresh kuseg page: its handler's misses are
  // kernel stalls.
  sim.OnRef({0x00800000, TraceRef::kLoad, 4, kKernelPid, true, false});
  const Prediction k = sim.Finish();
  EXPECT_EQ(k.utlb_misses, 2u);
  EXPECT_EQ(k.user_stall_cycles, p.user_stall_cycles);
  EXPECT_GT(k.kernel_stall_cycles, memsys.read_miss_penalty);
}

// Lanes are independent memory systems on one event pass: each lane's
// prediction is what a simulator of its own reports, whatever the other
// lanes price.  The stream mixes user and kernel modes, uncached kseg1
// accesses, stores that fill the write buffer, and TLB misses.
TEST(Predictor, LanesMatchDedicatedSimulators) {
  PredictorConfig config;
  config.page_map = [](uint32_t pid, uint32_t vpn) { return (vpn * 7 + pid) & 0xfffu; };
  std::vector<MemSysConfig> memsys(4);
  memsys[1].icache = {8 * 1024, 32};
  memsys[1].dcache = {4 * 1024, 8};
  memsys[2].read_miss_penalty = 40;
  memsys[2].uncached_penalty = 3;
  memsys[3].wb_depth = 1;
  memsys[3].wb_cycles_per_entry = 12;
  const std::vector<TraceRef> refs = SystemLikeStream(7, 100000);

  config.memsys = memsys[0];
  TraceDrivenSimulator lanes(config);
  for (size_t i = 1; i < memsys.size(); ++i) {
    EXPECT_EQ(lanes.AddMemorySystem(memsys[i]), i);
  }
  lanes.OnRefBatch(refs.data(), refs.size());
  EXPECT_THROW(lanes.AddMemorySystem(memsys[0]), InternalError);
  const Prediction primary = lanes.Finish();
  EXPECT_TRUE(primary == lanes.prediction(0));
  EXPECT_GT(primary.utlb_misses, 0u);
  EXPECT_GT(primary.memsys_stats.uncached_reads, 0u);
  for (size_t i = 0; i < memsys.size(); ++i) {
    SCOPED_TRACE(i);
    config.memsys = memsys[i];
    TraceDrivenSimulator alone(config);
    alone.OnRefBatch(refs.data(), refs.size());
    const Prediction want = alone.Finish();
    EXPECT_TRUE(lanes.prediction(i) == want);
    EXPECT_EQ(lanes.prediction(i).user_stall_cycles, want.user_stall_cycles);
    EXPECT_EQ(lanes.prediction(i).kernel_stall_cycles, want.kernel_stall_cycles);
  }
  EXPECT_GT(lanes.prediction(3).memsys_stats.wb_stall_cycles, 0u);
}

TEST(Predictor, KernelUserCpiSplit) {
  PredictorConfig config;
  config.page_map = [](uint32_t, uint32_t vpn) { return vpn; };
  TraceDrivenSimulator sim(config);
  for (int i = 0; i < 100; ++i) {
    sim.OnRef({0x00400000u + 4 * (i % 4), TraceRef::kIfetch, 4, 1, false, false});
  }
  for (int i = 0; i < 100; ++i) {
    // Kernel instructions spread over many lines: worse locality.
    sim.OnRef({0x80000000u + 64 * i, TraceRef::kIfetch, 4, kKernelPid, true, false});
  }
  Prediction p = sim.Finish();
  EXPECT_EQ(p.user_instructions, 100u);
  EXPECT_EQ(p.kernel_instructions, 100u);
  EXPECT_GT(p.KernelCpi(), p.UserCpi());
}

}  // namespace
}  // namespace wrl
