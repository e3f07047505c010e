// The simulator oracle: TraceDrivenSimulator prices a fetch run as one
// step (one set of counter updates, one TLB probe, one translation, and
// one I-cache lookup per line per lane), and ReferenceSimulator below is
// the per-reference walk it replaced.  The two must agree exactly — every
// lane's Prediction with its memory-system counters, and the TLB
// simulator's counters — on the system traces of every paper workload
// under both personalities, with 4-, 16- and 64-byte I-lines, delivered in
// batches of 1, 3 and 4,096 references, and on a seeded synthetic stream
// built to end a run at every boundary the run walk knows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "harness/experiment.h"
#include "isa/isa.h"
#include "kernel/system_build.h"
#include "mach/address_space.h"
#include "sim/predictor.h"
#include "sim/tlb_sim.h"
#include "support/error.h"
#include "support/rng.h"
#include "trace/parser.h"
#include "workloads/workloads.h"

namespace wrl {
namespace {

// ---------------------------------------------------------------------------
// The per-reference simulator: TraceDrivenSimulator as it was before it
// walked fetch runs.  Every reference takes the event counters, the TLB, a
// translation, and a charge to each lane of its own; a UTLB miss's
// synthesized handler is charged one reference at a time.

class ReferenceSimulator {
 public:
  explicit ReferenceSimulator(const PredictorConfig& config)
      : config_(config), tlb_(config.tlb_wired), translator_(config.page_map) {
    lanes_.emplace_back(config.memsys);
  }

  void AddTextImage(const Executable& exe) {
    Image image{exe.text_base, std::vector<uint8_t>(exe.text.size() / 4)};
    for (size_t i = 0; i < image.stall_cycles.size(); ++i) {
      uint32_t word;
      std::memcpy(&word, exe.text.data() + 4 * i, 4);
      const Op op = Decode(word).op;
      image.stall_cycles[i] = static_cast<uint8_t>(IsArithStall(op) ? ArithStallCycles(op) : 0);
    }
    images_.push_back(std::move(image));
  }
  void AddMemorySystem(const MemSysConfig& memsys) { lanes_.emplace_back(memsys); }

  void OnRef(const TraceRef& ref) {
    if (ref.kind == TraceRef::kIfetch) {
      ++events_.instructions;
      if (ref.idle) {
        ++events_.idle_instructions;
      } else if (ref.kernel) {
        ++events_.kernel_instructions;
      }
      if (!ref.kernel) {
        ++events_.user_instructions;
      }
      events_.arith_stall_cycles += ArithStallAt(ref.addr);
    }
    if (tlb_.OnRef(ref)) {
      events_.synthesized_refs += TlbSimulator::kHandlerRefs;
      for (const TraceRef& handler_ref : tlb_.handler()) {
        Access(handler_ref, ref.kernel);
      }
    }
    Access(ref, ref.kernel);
  }

  void Finish() {
    events_.utlb_misses = tlb_.stats().utlb_misses;
    events_.io_stall_cycles = static_cast<double>(events_.idle_instructions) * config_.dilation;
  }
  Prediction prediction(size_t lane) const {
    const Lane& l = lanes_.at(lane);
    Prediction p = events_;
    p.mem_stall_cycles = l.mem_stall_cycles;
    p.user_stall_cycles = l.user_stall_cycles;
    p.kernel_stall_cycles = l.kernel_stall_cycles;
    p.memsys_stats = l.memsys.stats();
    return p;
  }
  const TlbSimulator& tlb() const { return tlb_; }

 private:
  struct Lane {
    explicit Lane(const MemSysConfig& config) : memsys(config) {}

    MemorySystem memsys;
    uint64_t now = 0;
    uint64_t mem_stall_cycles = 0;
    uint64_t user_stall_cycles = 0;
    uint64_t kernel_stall_cycles = 0;
  };
  struct Image {
    uint32_t base;
    std::vector<uint8_t> stall_cycles;
  };

  void Access(const TraceRef& ref, bool kernel) {
    const uint32_t paddr = translator_.Translate(ref);
    const bool uncached = InKseg1(ref.addr);
    for (Lane& lane : lanes_) {
      MemorySystem& memsys = lane.memsys;
      uint64_t stall = 0;
      switch (ref.kind) {
        case TraceRef::kIfetch:
          stall = uncached ? memsys.UncachedLoad(paddr, lane.now) : memsys.Fetch(paddr, lane.now);
          break;
        case TraceRef::kLoad:
          stall = uncached ? memsys.UncachedLoad(paddr, lane.now) : memsys.Load(paddr, lane.now);
          break;
        case TraceRef::kStore:
          stall =
              uncached ? memsys.UncachedStore(paddr, lane.now) : memsys.Store(paddr, lane.now);
          break;
      }
      lane.mem_stall_cycles += stall;
      if (kernel) {
        lane.kernel_stall_cycles += stall;
      } else {
        lane.user_stall_cycles += stall;
      }
      lane.now += stall;
      if (ref.kind == TraceRef::kIfetch) {
        ++lane.now;
      }
    }
  }
  unsigned ArithStallAt(uint32_t addr) const {
    for (const Image& image : images_) {
      const uint32_t word = (addr - image.base) / 4;
      if (word < image.stall_cycles.size()) {
        return image.stall_cycles[word];
      }
    }
    return 0;
  }

  PredictorConfig config_;
  TlbSimulator tlb_;
  PageTranslator translator_;
  Prediction events_;
  std::vector<Lane> lanes_;
  std::vector<Image> images_;
};

// ---------------------------------------------------------------------------
// Running both and comparing.

// The lanes beside each stream's lane 0: I-lines of 4 and 64 bytes, so a
// run looks up every fetch, or up to 16 fetches at once.
std::vector<MemSysConfig> ExtraLanes() {
  std::vector<MemSysConfig> lanes(2);
  lanes[0].icache.line_bytes = 4;
  lanes[1].icache.line_bytes = 64;
  return lanes;
}

// Hands `refs` to `sink` in batches of `batch` (the last may be shorter).
void Deliver(RefBatchSink& sink, const std::vector<TraceRef>& refs, size_t batch) {
  for (size_t i = 0; i < refs.size(); i += batch) {
    sink.OnRefBatch(refs.data() + i, std::min(batch, refs.size() - i));
  }
}

void ExpectSamePrediction(const Prediction& got, const Prediction& want) {
  EXPECT_EQ(got.instructions, want.instructions);
  EXPECT_EQ(got.idle_instructions, want.idle_instructions);
  EXPECT_EQ(got.user_instructions, want.user_instructions);
  EXPECT_EQ(got.kernel_instructions, want.kernel_instructions);
  EXPECT_EQ(got.arith_stall_cycles, want.arith_stall_cycles);
  EXPECT_EQ(got.io_stall_cycles, want.io_stall_cycles);
  EXPECT_EQ(got.utlb_misses, want.utlb_misses);
  EXPECT_EQ(got.synthesized_refs, want.synthesized_refs);
  EXPECT_EQ(got.mem_stall_cycles, want.mem_stall_cycles);
  EXPECT_EQ(got.user_stall_cycles, want.user_stall_cycles);
  EXPECT_EQ(got.kernel_stall_cycles, want.kernel_stall_cycles);
  const MemSysStats& g = got.memsys_stats;
  const MemSysStats& w = want.memsys_stats;
  EXPECT_EQ(g.inst_fetches, w.inst_fetches);
  EXPECT_EQ(g.icache_misses, w.icache_misses);
  EXPECT_EQ(g.data_reads, w.data_reads);
  EXPECT_EQ(g.dcache_misses, w.dcache_misses);
  EXPECT_EQ(g.data_writes, w.data_writes);
  EXPECT_EQ(g.wb_stall_cycles, w.wb_stall_cycles);
  EXPECT_EQ(g.uncached_reads, w.uncached_reads);
  EXPECT_EQ(g.uncached_writes, w.uncached_writes);
  // Every field, in case Prediction grows one the lines above miss.
  EXPECT_TRUE(got == want);
}

// Finishes `got` and requires its every lane and its TLB to match `want`'s.
void ExpectSameResults(TraceDrivenSimulator& got, ReferenceSimulator& want, size_t lanes) {
  got.Finish();
  want.Finish();
  for (size_t lane = 0; lane < lanes; ++lane) {
    SCOPED_TRACE("lane " + std::to_string(lane));
    ExpectSamePrediction(got.prediction(lane), want.prediction(lane));
  }
  EXPECT_EQ(got.tlb().stats().user_refs, want.tlb().stats().user_refs);
  EXPECT_EQ(got.tlb().stats().utlb_misses, want.tlb().stats().utlb_misses);
  EXPECT_EQ(got.tlb().stats().ktlb_misses, want.tlb().stats().ktlb_misses);
}

// The fetches that continue a run from the reference before them: what the
// run walk absorbs.  Restated here from the run's definition.
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
  std::unique_ptr<SystemInstance> traced =
      BuildSystem(ExperimentSystemConfig(workload, options, true));
  std::unique_ptr<TraceParser> parser = SystemTraceParser(*traced);
  RefFnSink collect([&stream](const TraceRef& ref) { stream.refs.push_back(ref); });
  parser->SetBatchSink(&collect);
  traced->SetTraceSink(
      [&parser](const uint32_t* words, size_t count) { parser->Feed(words, count); });
  EXPECT_TRUE(traced->Run(options.max_instructions).halted);
  parser->Finish();
  EXPECT_EQ(parser->stats().validation_errors, 0u);
  return stream;
}

class SystemSimOracle
    : public ::testing::TestWithParam<std::tuple<std::string, Personality>> {};

TEST_P(SystemSimOracle, MatchesReferenceSimulator) {
  const auto& [name, personality] = GetParam();
  const SystemStream stream = CaptureSystemStream(name, personality);
  ASSERT_FALSE(stream.refs.empty());
  const std::vector<MemSysConfig> lanes = ExtraLanes();

  ReferenceSimulator want(stream.pconfig);
  want.AddTextImage(stream.measured->kernel_exe());
  want.AddTextImage(stream.measured->workload_orig());
  for (const MemSysConfig& memsys : lanes) {
    want.AddMemorySystem(memsys);
  }
  for (const TraceRef& ref : stream.refs) {
    want.OnRef(ref);
  }

  for (size_t batch : {size_t{1}, size_t{3}, kRefBatchCapacity}) {
    SCOPED_TRACE("batches of " + std::to_string(batch));
    std::unique_ptr<TraceDrivenSimulator> got =
        ExperimentSimulator(*stream.measured, stream.pconfig);
    for (const MemSysConfig& memsys : lanes) {
      got->AddMemorySystem(memsys);
    }
    Deliver(*got, stream.refs, batch);
    ExpectSameResults(*got, want, 1 + lanes.size());
  }

  // Not vacuous: the runs absorb a large share of the stream, which takes
  // UTLB misses.
  EXPECT_GT(AbsorbedFetches(stream.refs), stream.refs.size() / 4);
  EXPECT_GT(want.prediction(0).utlb_misses, 0u);
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : PaperWorkloads(0.02)) {
    names.push_back(w.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SystemSimOracle,
    ::testing::Combine(::testing::ValuesIn(WorkloadNames()),
                       ::testing::Values(Personality::kUltrix, Personality::kMach)),
    [](const ::testing::TestParamInfo<SystemSimOracle::ParamType>& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == Personality::kMach ? "_mach" : "_ultrix");
    });

// ---------------------------------------------------------------------------
// A synthetic stream that ends a run at every boundary.

constexpr uint32_t kUserText = 0x00400000;
constexpr uint32_t kUserTextBytes = 5000;  // Ends 904 bytes into its second page.
constexpr uint32_t kKernelText = kKseg0;
constexpr uint32_t kKernelTextBytes = 9000;  // Ends 808 bytes into its third page.

// An original text image of `bytes` bytes at `base`, mostly ALU words with
// multiplies and divides among them.
Executable TextImage(uint32_t base, uint32_t bytes, Rng& rng) {
  const uint32_t words[] = {EncodeRType(Op::kMult, kT0, kT1, 0, 0),
                            EncodeRType(Op::kDivu, kT0, kT1, 0, 0),
                            EncodeRType(Op::kAddu, kT0, kT1, kT2, 0),
                            EncodeRType(Op::kAddu, kT1, kT2, kT0, 0)};
  Executable exe;
  exe.text_base = base;
  for (uint32_t i = 0; i < bytes / 4; ++i) {
    const uint32_t w = words[rng.Below(4)];
    for (int b = 0; b < 4; ++b) {
      exe.text.push_back(static_cast<uint8_t>(w >> (8 * b)));
    }
  }
  return exe;
}

// Fetch runs from random starts, each at most a few dozen words, ended by
// every boundary the run walk knows:
//   * a page crossing (starts in a page's last 64 bytes);
//   * a pid, kernel or idle change in mid-run, the addresses running on;
//   * kseg1 (never a run) and kseg2 (a run, TLB-mapped) fetches;
//   * the first fetch of a run missing in the TLB, in user and in kernel
//     mode: the user pages outnumber the TLB's entries several times, and
//     the kernel fetches from kuseg too;
//   * the end of a text image (runs start near both images' ends);
//   * loads and stores between runs and inside them, to kuseg, kseg0,
//     kseg1 and kseg2 (stores fill the write buffer of the narrow lane).
std::vector<TraceRef> RunBoundaryStream(uint64_t seed, size_t runs) {
  Rng rng(seed);
  std::vector<TraceRef> refs;
  auto data_ref = [&rng](uint8_t pid, bool kernel) -> TraceRef {
    const TraceRef::Kind kind = rng.Below(2) == 0 ? TraceRef::kLoad : TraceRef::kStore;
    const uint32_t offset = rng.Below(kPageBytes / 4) * 4;
    switch (rng.Below(6)) {
      case 0:
        return {kKseg0 + 0x00100000 + rng.Below(16) * kPageBytes + offset, kind, 4, kKernelPid,
                true, false};
      case 1:
        return {kKseg1 + 0x00100000 + offset, kind, 4, kKernelPid, true, false};
      case 2:
        return {kKseg2 + rng.Below(8) * kPageBytes + offset, kind, 4, kKernelPid, true, false};
      default:
        return {0x10000000 + rng.Below(96) * kPageBytes + offset, kind, 4,
                kernel ? kKernelPid : pid, kernel, false};
    }
  };
  for (size_t r = 0; r < runs; ++r) {
    uint8_t pid = static_cast<uint8_t>(1 + rng.Below(3));
    bool kernel = false;
    bool idle = false;
    uint32_t addr;
    const uint32_t where = rng.Below(10);
    if (where < 3) {
      // User text: the image's pages, and 160 more to overflow the TLB.
      addr = rng.Below(2) == 0 ? kUserText + rng.Below(3 * kPageBytes / 4) * 4
                               : 0x00500000 + rng.Below(160) * kPageBytes +
                                     rng.Below(kPageBytes / 4) * 4;
    } else if (where < 4) {
      addr = kUserText + kUserTextBytes - 4 * rng.Below(12);  // Across the image's end.
    } else if (where < 6) {
      kernel = true;
      idle = rng.Below(3) == 0;
      addr = rng.Below(2) == 0 ? kKernelText + kKernelTextBytes - 4 * rng.Below(12)
                               : kKernelText + rng.Below(4 * kPageBytes / 4) * 4;
    } else if (where < 7) {
      kernel = true;  // The kernel fetching from a user page.
      addr = 0x00500000 + rng.Below(160) * kPageBytes + rng.Below(kPageBytes / 4) * 4;
    } else if (where < 8) {
      kernel = true;
      addr = (rng.Below(2) == 0 ? kKseg1 : kKseg2) + rng.Below(4) * kPageBytes +
             rng.Below(kPageBytes / 4) * 4;
    } else {
      // The last 64 bytes of some user or kernel page: the run crosses it.
      kernel = rng.Below(2) == 0;
      const uint32_t page = kernel ? kKernelText + rng.Below(3) * kPageBytes
                                   : 0x00500000 + rng.Below(160) * kPageBytes;
      addr = page + kPageBytes - 4 * (1 + rng.Below(16));
    }
    const uint32_t length = 1 + rng.Below(40);
    for (uint32_t i = 0; i < length; ++i, addr += 4) {
      switch (rng.Below(24)) {
        case 0:
          pid = static_cast<uint8_t>(1 + rng.Below(3));
          break;
        case 1:
          kernel = !kernel;
          break;
        case 2:
          idle = !idle;
          break;
        case 3:
          refs.push_back(data_ref(pid, kernel));
          break;
        default:
          break;
      }
      refs.push_back({addr, TraceRef::kIfetch, 4, kernel ? kKernelPid : pid, kernel,
                      kernel && idle});
    }
    for (uint32_t d = rng.Below(4); d > 0; --d) {
      refs.push_back(data_ref(pid, kernel));
    }
  }
  return refs;
}

TEST(SimOracle, SyntheticRunBoundariesMatchReferenceSimulator) {
  Rng rng(2026);
  const Executable user_text = TextImage(kUserText, kUserTextBytes, rng);
  const Executable kernel_text = TextImage(kKernelText, kKernelTextBytes, rng);
  PredictorConfig config;
  // Few frames, so pages alias in the physically indexed caches.
  config.page_map = [](uint32_t pid, uint32_t vpn) { return (vpn * 7 + pid) & 0x3fu; };
  // Beside the 4- and 64-byte lines: lines narrower than a word, lines
  // wider than a page, and a one-deep write buffer.
  std::vector<MemSysConfig> lanes = ExtraLanes();
  lanes.emplace_back().icache = {1024, 2};
  lanes.emplace_back().icache = {64 * 1024, 8192};
  MemSysConfig narrow;
  narrow.icache = {4 * 1024, 32};
  narrow.wb_depth = 1;
  narrow.wb_cycles_per_entry = 12;
  lanes.push_back(narrow);

  const std::vector<TraceRef> refs = RunBoundaryStream(17, 40000);
  ReferenceSimulator want(config);
  want.AddTextImage(user_text);
  want.AddTextImage(kernel_text);
  for (const MemSysConfig& memsys : lanes) {
    want.AddMemorySystem(memsys);
  }
  for (const TraceRef& ref : refs) {
    want.OnRef(ref);
  }

  // Fixed batches, and random ones that end runs anywhere.
  std::vector<size_t> batches = {1, 3, kRefBatchCapacity};
  for (int i = 0; i < 3; ++i) {
    batches.push_back(1 + rng.Below(64));
  }
  for (size_t batch : batches) {
    SCOPED_TRACE("batches of " + std::to_string(batch));
    TraceDrivenSimulator got(config);
    got.AddTextImage(user_text);
    got.AddTextImage(kernel_text);
    for (const MemSysConfig& memsys : lanes) {
      got.AddMemorySystem(memsys);
    }
    Deliver(got, refs, batch);
    ExpectSameResults(got, want, 1 + lanes.size());
  }
  // The one-lane walk, its own instantiation.
  TraceDrivenSimulator alone(config);
  alone.AddTextImage(user_text);
  alone.AddTextImage(kernel_text);
  Deliver(alone, refs, kRefBatchCapacity);
  alone.Finish();
  ExpectSamePrediction(alone.prediction(0), want.prediction(0));

  // Not vacuous: every kind of event the stream is built for happens.
  const Prediction p = want.prediction(0);
  EXPECT_GT(AbsorbedFetches(refs), refs.size() / 3);
  EXPECT_GT(p.utlb_misses, 1000u);
  EXPECT_GT(want.tlb().stats().ktlb_misses, 0u);
  EXPECT_GT(p.idle_instructions, 0u);
  EXPECT_GT(p.kernel_instructions, 0u);
  EXPECT_GT(p.arith_stall_cycles, 0u);
  EXPECT_GT(p.memsys_stats.uncached_reads, 0u);
  EXPECT_GT(p.memsys_stats.uncached_writes, 0u);
  EXPECT_GT(want.prediction(lanes.size()).memsys_stats.wb_stall_cycles, 0u);
}

// The run walk prices each image's words only through one lookup per run,
// so it takes images that start on a page and share none.
TEST(SimOracle, TextImagesMustNotSharePages) {
  Rng rng(5);
  TraceDrivenSimulator sim(PredictorConfig{});
  EXPECT_THROW(sim.AddTextImage(TextImage(kUserText + 16, 64, rng)), InternalError);
  EXPECT_THROW(sim.AddTextImage(TextImage(0xfffff000u, 2 * kPageBytes, rng)), InternalError);
  sim.AddTextImage(TextImage(kUserText, kUserTextBytes, rng));
  EXPECT_THROW(sim.AddTextImage(TextImage(kUserText + kPageBytes, 64, rng)), InternalError);
  EXPECT_THROW(sim.AddTextImage(TextImage(kUserText - kPageBytes, kPageBytes + 4, rng)),
               InternalError);
  sim.AddTextImage(TextImage(kUserText - kPageBytes, kPageBytes, rng));
  sim.AddTextImage(TextImage(kUserText + 2 * kPageBytes, 64, rng));
}

}  // namespace
}  // namespace wrl
