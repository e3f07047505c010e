// The pipelined trace transport's contract: chunks flow through the bounded
// SPSC ring in strict drain order, so a pipelined experiment is
// byte-identical to the synchronous one — every counter, trace word,
// profile, and predicted number — with and without replay variants and the
// profiler.  The transport itself must apply backpressure when
// the consumer is slow, count its stalls/starves, and shut down cleanly
// when the consumer chain throws mid-stream.  The measured run overlapping
// the traced half must surface its own failure from the helper thread.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "stats/stats.h"
#include "support/error.h"
#include "trace/chunk_ring.h"
#include "workloads/workloads.h"

namespace wrl {
namespace {

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

// ---- ChunkRing transport ----

TEST(ChunkRing, PreservesOrderUnderBackpressure) {
  constexpr size_t kChunks = 64;
  constexpr size_t kWordsPerChunk = 17;
  ChunkRing ring(2);
  std::vector<uint32_t> first_words;
  std::thread consumer([&] {
    std::vector<uint32_t> chunk;
    while (ring.Pop(chunk)) {
      // An artificially slow consumer: the tiny ring must fill and the
      // producer must stall rather than drop or reorder chunks.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ASSERT_EQ(chunk.size(), kWordsPerChunk);
      first_words.push_back(chunk[0]);
    }
  });
  for (size_t i = 0; i < kChunks; ++i) {
    std::vector<uint32_t> words(kWordsPerChunk, static_cast<uint32_t>(i));
    ASSERT_TRUE(ring.Push(words.data(), words.size()));
  }
  ring.Close();
  consumer.join();

  ASSERT_EQ(first_words.size(), kChunks);
  for (size_t i = 0; i < kChunks; ++i) {
    EXPECT_EQ(first_words[i], static_cast<uint32_t>(i)) << i;
  }
  EXPECT_EQ(ring.chunks(), kChunks);
  EXPECT_EQ(ring.words(), kChunks * kWordsPerChunk);
  EXPECT_GT(ring.producer_stalls(), 0u);
  EXPECT_LE(ring.max_occupancy(), ring.capacity());
  EXPECT_EQ(ring.occupancy_hist().count(), kChunks);
}

// Waits until the consumer has found the ring empty `n` times.
void AwaitStarves(const ChunkRing& ring, uint64_t n) {
  while (ring.consumer_starves() < n) {
    std::this_thread::yield();
  }
}

TEST(ChunkRing, CountsConsumerStarves) {
  ChunkRing ring(4);
  std::atomic<uint64_t> seen{0};
  std::thread consumer([&] {
    std::vector<uint32_t> chunk;
    while (ring.Pop(chunk)) {
      seen += chunk.size();
    }
  });
  for (uint32_t i = 0; i < 8; ++i) {
    // A producer slower than the consumer: each push waits until the
    // consumer has emptied the ring and blocked on it once more.
    AwaitStarves(ring, i + 1);
    ASSERT_TRUE(ring.Push(&i, 1));
  }
  AwaitStarves(ring, 9);
  ring.Close();
  consumer.join();
  EXPECT_EQ(seen.load(), 8u);
  EXPECT_EQ(ring.consumer_starves(), 9u);
  EXPECT_EQ(ring.producer_stalls(), 0u);
}

TEST(ChunkRing, CancelUnblocksBlockedProducer) {
  ChunkRing ring(1);
  uint32_t word = 1;
  ASSERT_TRUE(ring.Push(&word, 1));  // Fills the ring.
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ring.Cancel();
  });
  // Blocks on the full ring until Cancel, then reports the drop.
  EXPECT_FALSE(ring.Push(&word, 1));
  canceller.join();
  EXPECT_TRUE(ring.cancelled());
  std::vector<uint32_t> out;
  EXPECT_FALSE(ring.Pop(out));  // Cancelled rings drop queued chunks too.
}

// ---- TracePipeline shutdown ----

TEST(TracePipeline, ConsumerErrorSurfacesMidStream) {
  // The consumer chain fails on its third chunk; the producer must learn of
  // the death at a subsequent drain (or Finish) as the consumer's own
  // exception, with no hang and no silent drop.
  size_t consumed = 0;
  TracePipeline pipeline(
      [&consumed](const uint32_t*, size_t) {
        if (++consumed == 3) {
          throw Error("parser failed mid-stream");
        }
      },
      2);
  uint32_t word = 7;
  bool threw = false;
  try {
    for (int i = 0; i < 1000; ++i) {
      pipeline.Produce(&word, 1);
    }
    pipeline.Finish();
  } catch (const Error& e) {
    threw = true;
    EXPECT_STREQ(e.what(), "parser failed mid-stream");
  }
  EXPECT_TRUE(threw);
  EXPECT_GE(consumed, 3u);
  // The error was delivered once; a later Finish is a clean no-op.
  EXPECT_NO_THROW(pipeline.Finish());
}

TEST(TracePipeline, AbandonedPipelineJoinsQuietly) {
  // Unwinding past a pipeline whose consumer failed must not terminate:
  // the destructor joins without throwing.
  TracePipeline pipeline([](const uint32_t*, size_t) { throw Error("dead on arrival"); }, 2);
  uint32_t word = 1;
  pipeline.Produce(&word, 1);
  // Destructor runs here with the error still queued.
}

// ---- Experiment-level byte identity: pipelined vs synchronous ----

// Names excluded from identity comparison: the pipeline's own transport
// counters (they exist only on pipelined runs and their stall/starve values
// depend on scheduling) and anything wall-clock derived.
bool TimingOrTransportName(const std::string& name) {
  return name.rfind("trace.pipeline.", 0) == 0 || name.find("wall") != std::string::npos ||
         name.find("per_sec") != std::string::npos || name.find("mips") != std::string::npos;
}

void ExpectSameStats(const StatsSnapshot& pipelined, const StatsSnapshot& sync) {
  for (const auto& [name, value] : sync.values()) {
    if (TimingOrTransportName(name)) {
      continue;
    }
    const StatValue* other = pipelined.Find(name);
    ASSERT_NE(other, nullptr) << "pipelined run lost metric " << name;
    ASSERT_EQ(other->kind, value.kind) << name;
    switch (value.kind) {
      case StatValue::Kind::kCounter:
        EXPECT_EQ(other->counter, value.counter) << name;
        break;
      case StatValue::Kind::kGauge:
        EXPECT_EQ(other->gauge, value.gauge) << name;
        break;
      case StatValue::Kind::kHistogram:
        EXPECT_EQ(other->hist_count, value.hist_count) << name;
        EXPECT_EQ(other->hist_sum, value.hist_sum) << name;
        EXPECT_EQ(other->hist_min, value.hist_min) << name;
        EXPECT_EQ(other->hist_max, value.hist_max) << name;
        EXPECT_EQ(other->hist_buckets, value.hist_buckets) << name;
        break;
    }
  }
  // And nothing new appeared beyond the transport counters.
  for (const auto& [name, value] : pipelined.values()) {
    if (!TimingOrTransportName(name)) {
      EXPECT_TRUE(sync.Has(name)) << "pipelined run grew metric " << name;
    }
  }
}

void ExpectSamePrediction(const Prediction& a, const Prediction& b) {
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.idle_instructions, b.idle_instructions);
  EXPECT_EQ(a.mem_stall_cycles, b.mem_stall_cycles);
  EXPECT_EQ(a.arith_stall_cycles, b.arith_stall_cycles);
  EXPECT_EQ(a.io_stall_cycles, b.io_stall_cycles);
  EXPECT_EQ(a.utlb_misses, b.utlb_misses);
  EXPECT_EQ(a.synthesized_refs, b.synthesized_refs);
  EXPECT_EQ(a.user_instructions, b.user_instructions);
  EXPECT_EQ(a.kernel_instructions, b.kernel_instructions);
}

WorkloadSpec UnitWorkload() {
  WorkloadSpec w;
  w.name = "unit";
  w.description = "tiny compute kernel";
  w.source = kBody;
  return w;
}

void ExpectSameExperiment(const ExperimentResult& pipelined, const ExperimentResult& sync) {
  EXPECT_EQ(pipelined.measured_cycles, sync.measured_cycles);
  EXPECT_EQ(pipelined.measured_utlb, sync.measured_utlb);
  EXPECT_EQ(pipelined.exit_code, sync.exit_code);
  EXPECT_EQ(pipelined.trace_words, sync.trace_words);
  EXPECT_EQ(pipelined.parser_errors, sync.parser_errors);
  EXPECT_EQ(pipelined.analysis_switches, sync.analysis_switches);
  EXPECT_EQ(pipelined.traced_machine_instructions, sync.traced_machine_instructions);
  ExpectSamePrediction(pipelined.prediction, sync.prediction);
  ExpectSameStats(pipelined.stats, sync.stats);
}

TEST(PipelinedExperiment, LiveAnalysisIsByteIdentical) {
  // The pipeline forced on and off: the host may have one core, where the
  // default degrades to synchronous.
  WorkloadSpec w = UnitWorkload();

  ExperimentOptions pipelined_options;
  pipelined_options.pipeline = true;
  ExperimentResult pipelined = RunExperiment(w, pipelined_options);

  ExperimentOptions sync_options;
  sync_options.pipeline = false;
  ExperimentResult sync = RunExperiment(w, sync_options);

  ExpectSameExperiment(pipelined, sync);

  // The transport counters exist exactly on the pipelined run, and the ring
  // carried every drained trace word.
  ASSERT_TRUE(pipelined.stats.Has("trace.pipeline.chunks"));
  EXPECT_FALSE(sync.stats.Has("trace.pipeline.chunks"));
  EXPECT_GE(pipelined.stats.CounterValue("trace.pipeline.chunks"), 1u);
  EXPECT_EQ(pipelined.stats.CounterValue("trace.pipeline.words"), pipelined.trace_words);
}

// At the default 16 MB buffer a small paper workload drains once, at halt,
// yet its trace reaches the consumer in several chunks while the traced
// machine runs, the ring carries every drained word, and the wait for the
// consumer after the run is a named timeline phase.
TEST(PipelinedExperiment, TraceStreamsDuringTheTracedRun) {
  ExperimentOptions options;
  options.pipeline = true;
  ExperimentResult result = RunExperiment(PaperWorkload("sed", 0.02), options);
  const uint64_t drains = result.stats.CounterValue("traced.trace.drains");
  EXPECT_EQ(drains, 1u);
  EXPECT_GT(result.stats.CounterValue("trace.pipeline.chunks"), drains);
  EXPECT_EQ(result.stats.CounterValue("trace.pipeline.words"), result.trace_words);
  size_t waits = 0;
  for (const TimelineEvent& e : result.timeline) {
    waits += e.name == "trace.pipeline_wait" && !e.instant;
  }
  EXPECT_EQ(waits, 1u);
}

// A replay variant on the consumer thread's tee, pipelined vs synchronous.
TEST(PipelinedExperiment, CaptureReplayIsByteIdentical) {
  WorkloadSpec w = UnitWorkload();

  ExperimentOptions pipelined_options;
  pipelined_options.pipeline = true;
  ReplayVariant baseline;
  baseline.name = "baseline";
  pipelined_options.replay_variants.push_back(baseline);
  ExperimentResult pipelined = RunExperiment(w, pipelined_options);

  ExperimentOptions sync_options = pipelined_options;
  sync_options.pipeline = false;
  ExperimentResult sync = RunExperiment(w, sync_options);

  ExpectSameExperiment(pipelined, sync);
  ASSERT_EQ(pipelined.replays.size(), sync.replays.size());
  for (size_t i = 0; i < sync.replays.size(); ++i) {
    EXPECT_EQ(pipelined.replays[i].name, sync.replays[i].name);
    ExpectSamePrediction(pipelined.replays[i].prediction, sync.replays[i].prediction);
    EXPECT_EQ(pipelined.replays[i].refs, sync.replays[i].refs);
  }
}

TEST(PipelinedExperiment, ProfiledRunIsByteIdentical) {
  WorkloadSpec w = UnitWorkload();

  ExperimentOptions pipelined_options;
  pipelined_options.pipeline = true;
  pipelined_options.profile = true;
  ExperimentResult pipelined = RunExperiment(w, pipelined_options);

  ExperimentOptions sync_options = pipelined_options;
  sync_options.pipeline = false;
  ExperimentResult sync = RunExperiment(w, sync_options);

  ExpectSameExperiment(pipelined, sync);
  EXPECT_EQ(pipelined.profile.CanonicalJson(), sync.profile.CanonicalJson());
}

// Neither run halts within the budget.  The measured run fails on its
// helper thread while the traced half fails on this one; the measured
// failure is the one that surfaces.
TEST(OverlappedExperiment, MeasuredRunFailureSurfacesFromTheHelperThread) {
  ExperimentOptions options;
  options.max_instructions = 1000;
  try {
    RunExperiment(UnitWorkload(), options);
    FAIL() << "RunExperiment returned";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("measured run of 'unit' did not halt"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace wrl
