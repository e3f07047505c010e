// Streaming the in-kernel trace buffer while the traced system runs
// (SystemInstance::Run in kernel/system_build.h): the host publishes the
// buffer's finished prefix after instruction slices, so the sink receives
// each drain as one or more chunks.  The chunks must join into exactly the
// words of the drain-by-drain delivery — for every paper workload, under
// both personalities, at buffer sizes from one drain per run to many, and
// however a run's budget is split across calls — and every drain counter
// must keep its meaning.  A trace pointer the host cannot trust must stop
// the run before any word reaches the sink.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "harness/experiment.h"
#include "kernel/system_build.h"
#include "stats/stats.h"
#include "support/error.h"
#include "support/strings.h"
#include "workloads/workloads.h"

namespace wrl {
namespace {

constexpr uint64_t kBudget = 3'000'000'000;
constexpr uint32_t kDefaultBuffer = 16u << 20;
constexpr uint32_t kSwitchingBuffer = 192u << 10;  // Forces analysis switches.
constexpr uint32_t kSmallBuffer = 64u << 10;       // Forces many of them.

std::unique_ptr<SystemInstance> BuildTraced(const std::string& workload, double scale,
                                            Personality personality, uint32_t buffer_bytes) {
  ExperimentOptions options;
  options.personality = personality;
  options.trace_buf_bytes = buffer_bytes;
  return BuildSystem(ExperimentSystemConfig(PaperWorkload(workload, scale), options, true));
}

// What one traced run handed its trace sink, and its drain accounting.
struct Delivery {
  std::vector<uint32_t> words;
  size_t chunks = 0;
  uint64_t words_drained = 0;
  uint64_t drains = 0;
  uint64_t analysis_switches = 0;
};

Delivery Deliver(const std::string& workload, double scale, Personality personality,
                 uint32_t buffer_bytes, const std::function<void(SystemInstance&)>& run) {
  std::unique_ptr<SystemInstance> sys = BuildTraced(workload, scale, personality, buffer_bytes);
  Delivery d;
  sys->SetTraceSink([&d](const uint32_t* words, size_t count) {
    EXPECT_GT(count, 0u);
    d.words.insert(d.words.end(), words, words + count);
    ++d.chunks;
  });
  run(*sys);
  EXPECT_TRUE(sys->machine().halted());
  d.words_drained = sys->trace_words_drained();
  StatsRegistry registry;
  sys->RegisterStats(registry, "traced.");
  d.drains = registry.Snapshot().CounterValue("traced.trace.drains");
  d.analysis_switches = sys->AnalysisSwitches();
  return d;
}

// The drain-by-drain reference: the bare machine runs to halt, so the sink
// sees exactly the kernel's drains (each from the buffer's base), then the
// final drain at halt.
void DrainByDrain(SystemInstance& sys) {
  sys.machine().Run(kBudget);
  sys.Run(0);
}

void Streamed(SystemInstance& sys) { sys.Run(kBudget); }

void ExpectSameDelivery(const Delivery& got, const Delivery& want) {
  ASSERT_EQ(got.words.size(), want.words.size());
  EXPECT_TRUE(got.words == want.words) << "same length, different words";
  EXPECT_EQ(got.words_drained, want.words_drained);
  EXPECT_EQ(got.drains, want.drains);
  EXPECT_EQ(got.analysis_switches, want.analysis_switches);
  // Every drained word is delivered exactly once.
  EXPECT_EQ(got.words.size(), got.words_drained);
}

// ---- Exactness over the paper workloads ----

class StreamedTrace : public ::testing::TestWithParam<std::tuple<std::string, Personality>> {};

TEST_P(StreamedTrace, JoinsIntoTheDrainByDrainWords) {
  const auto& [workload, personality] = GetParam();
  constexpr double kScale = 0.01;
  for (uint32_t buffer : {kDefaultBuffer, kSwitchingBuffer, kSmallBuffer}) {
    SCOPED_TRACE(StrFormat("%u-byte buffer", buffer));
    Delivery want = Deliver(workload, kScale, personality, buffer, DrainByDrain);
    Delivery got = Deliver(workload, kScale, personality, buffer, Streamed);
    ExpectSameDelivery(got, want);
    if (buffer == kDefaultBuffer) {
      EXPECT_EQ(got.drains, 1u);  // Only the final drain at halt.
      // Well above the 16 K-word publishing minimum, part of the trace
      // left while the machine still ran.
      if (got.words.size() >= (size_t{1} << 16)) {
        EXPECT_GT(got.chunks, got.drains);
      }
    }
    // More words than the buffer holds took more than one fill.
    if (got.words.size() > buffer / 4) {
      EXPECT_GT(got.analysis_switches, 0u);
    }
  }
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : PaperWorkloads(0.01)) {
    names.push_back(w.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, StreamedTrace,
    ::testing::Combine(::testing::ValuesIn(WorkloadNames()),
                       ::testing::Values(Personality::kUltrix, Personality::kMach)),
    [](const ::testing::TestParamInfo<StreamedTrace::ParamType>& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == Personality::kMach ? "_mach" : "_ultrix");
    });

// ---- A run split across calls ----

// A budget split across Run calls delivers what one call does: a call that
// stops on its budget hands over every finished word and counts no drain,
// and only the call that halts the machine drains it, once.
TEST(SystemTraceRun, SplitRunsDeliverWhatOneRunDoes) {
  for (Personality personality : {Personality::kUltrix, Personality::kMach}) {
    for (uint32_t buffer : {kDefaultBuffer, kSwitchingBuffer}) {
      SCOPED_TRACE(StrFormat("%s, %u-byte buffer",
                             personality == Personality::kMach ? "mach" : "ultrix", buffer));
      Delivery one = Deliver("sed", 0.05, personality, buffer, Streamed);
      if (buffer == kSwitchingBuffer) {
        EXPECT_GT(one.analysis_switches, 0u);
      }
      Delivery budgets = Deliver("sed", 0.05, personality, buffer, [](SystemInstance& sys) {
        EXPECT_FALSE(sys.Run(2'000'000).halted);
        sys.Run(3'000'000);
        sys.Run(kBudget);
      });
      ExpectSameDelivery(budgets, one);
      Delivery after_halt = Deliver("sed", 0.05, personality, buffer, [](SystemInstance& sys) {
        sys.Run(kBudget);
        sys.Run(0);
        sys.Run(10);
      });
      ExpectSameDelivery(after_halt, one);
      EXPECT_EQ(after_halt.chunks, one.chunks);
    }
  }
}

// ---- Untrusted trace pointer ----

// ktrace_ptr lives in simulated memory.  A value the buffer cannot hold —
// past its end or unaligned — must throw before the sink sees a word,
// never hand the sink memory beyond the buffer.
TEST(SystemTraceRun, OutOfRangeTracePointerThrowsBeforeTheSink) {
  const uint32_t base = kKernelTraceBufAddr;
  const uint32_t bad_pointers[] = {
      base + kDefaultBuffer + 4,  // One word past the end.
      base + (20u << 20),         // Past a 16 MB buffer.
      base + (125u << 20),        // Past simulated memory.
      base + 4098,                // Unaligned.
  };
  for (uint32_t bad : bad_pointers) {
    SCOPED_TRACE(StrFormat("ktrace_ptr = 0x%08x", bad));
    std::unique_ptr<SystemInstance> sys =
        BuildTraced("sed", 0.01, Personality::kUltrix, kDefaultBuffer);
    ASSERT_TRUE(sys->machine().Run(kBudget).halted);
    size_t sink_calls = 0;
    sys->SetTraceSink([&sink_calls](const uint32_t*, size_t) { ++sink_calls; });
    sys->machine().PhysWrite32(sys->kernel_exe().SymbolAddress("ktrace_ptr") - kKseg0, bad);
    try {
      sys->Run(0);
      ADD_FAILURE() << "Run accepted the trace pointer";
    } catch (const InternalError& e) {
      EXPECT_NE(std::string(e.what()).find("kernel trace pointer"), std::string::npos) << e.what();
    }
    EXPECT_EQ(sink_calls, 0u);
  }
}

}  // namespace
}  // namespace wrl
