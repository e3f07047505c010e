// The pipelined trace transport's contract: chunks flow through the bounded
// SPSC ring in strict drain order, and the parser's reference batches
// through a second ring to the analysis thread, so a pipelined experiment
// is byte-identical to the synchronous one — every counter, trace word,
// profile, and predicted number — with and without replay variants and the
// profiler.  The transport itself must apply backpressure when
// the consumer is slow, count its stalls/starves, and shut down cleanly
// when the consumer chain throws mid-stream, across both stages.  The
// parser's self time leaves out its sinks' time in both transports.  The
// measured run overlapping the traced half must surface its own failure
// from the helper thread.  Every thread of an experiment or a pooled suite
// records its phases on a timeline track of its own, and every track is
// well nested.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "harness/report.h"
#include "stats/events.h"
#include "stats/stats.h"
#include "support/error.h"
#include "support/json.h"
#include "tests/test_util.h"
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
  EXPECT_EQ(ring.items(), kChunks * kWordsPerChunk);
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
  EventRecorder events;
  ExperimentOptions options;
  options.pipeline = true;
  options.events = &events;
  ExperimentResult result = RunExperiment(PaperWorkload("sed", 0.02), options);
  const uint64_t drains = result.stats.CounterValue("traced.trace.drains");
  EXPECT_EQ(drains, 1u);
  EXPECT_GT(result.stats.CounterValue("trace.pipeline.chunks"), drains);
  EXPECT_EQ(result.stats.CounterValue("trace.pipeline.words"), result.trace_words);
  size_t waits = 0;
  for (const TimelineEvent& e : events.events()) {
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

// ---- The analysis stage behind the parser ----

// Sleeps on every batch: a sink far slower than the parse.
class SlowSink : public RefBatchSink {
 public:
  void OnRefBatch(const TraceRef*, size_t) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ++batches_;
  }
  uint64_t batches() const { return batches_; }

 private:
  uint64_t batches_ = 0;
};

// A small system trace, in its published chunks.
std::vector<std::vector<uint32_t>> TraceChunks(SystemInstance& traced) {
  std::vector<std::vector<uint32_t>> chunks;
  traced.SetTraceSink([&chunks](const uint32_t* words, size_t count) {
    chunks.emplace_back(words, words + count);
  });
  EXPECT_TRUE(traced.Run(ExperimentOptions().max_instructions).halted);
  traced.SetTraceSink(nullptr);
  return chunks;
}

// The parser's self time leaves out its batch-sink calls: a sink's time
// does not count, whether the tee runs it on the parser's thread or the
// analysis stage does, where the parser also waits on the full ring.
TEST(AnalysisStage, SlowSinkTimeStaysOutOfTheParseSelfTime) {
  ExperimentOptions options;
  std::unique_ptr<SystemInstance> traced =
      BuildSystem(ExperimentSystemConfig(UnitWorkload(), options, true));
  const std::vector<std::vector<uint32_t>> chunks = TraceChunks(*traced);
  for (bool staged : {false, true}) {
    SCOPED_TRACE(staged ? "analysis stage" : "synchronous");
    SlowSink slow;
    TeeBatchSink tee;
    tee.Add(&slow);
    std::unique_ptr<RefBatchPipeline> stage;
    std::unique_ptr<TraceParser> parser = SystemTraceParser(*traced);
    if (staged) {
      stage = std::make_unique<RefBatchPipeline>(&tee);
      parser->SetBatchSink(stage.get(), 16);
    } else {
      parser->SetBatchSink(&tee, 16);
    }
    for (const std::vector<uint32_t>& chunk : chunks) {
      parser->Feed(chunk.data(), chunk.size());
    }
    parser->Finish();
    if (stage != nullptr) {
      stage->Finish();
      EXPECT_GT(stage->ring().producer_stalls(), 0u);
      EXPECT_GT(stage->ring().producer_stall_us(), 0u);
    }
    ASSERT_GT(slow.batches(), 3 * kRefPipelineDepth);
    const uint64_t slept_us = 1000 * slow.batches();
    EXPECT_GE(tee.busy_us(&slow), slept_us);
    EXPECT_LT(parser->self_us() * 4, slept_us) << parser->self_us() << " us";
  }
}

// What a mid-stream sink failure on the analysis thread looks like through
// the live chain RunExperiment wires: traced machine -> word ring -> parse
// thread -> reference ring -> analysis thread.  The sink's own exception
// reaches the caller, from the traced run or from the shutdown that
// follows it in RunExperiment's order, and every thread has been joined
// by the time the chain's objects are destroyed.
TEST(AnalysisStage, SinkFailureCrossesBothStagesToTheCaller) {
  ExperimentOptions options;
  std::unique_ptr<SystemInstance> traced =
      BuildSystem(ExperimentSystemConfig(PaperWorkload("sed", 0.02), options, true));
  size_t batches = 0;
  RefFnSink counter([](const TraceRef&) {});
  class Failing : public RefBatchSink {
   public:
    explicit Failing(size_t* batches) : batches_(batches) {}
    void OnRefBatch(const TraceRef*, size_t) override {
      if (++*batches_ == 5) {
        throw Error("sink failed mid-stream");
      }
    }

   private:
    size_t* batches_;
  } failing(&batches);
  TeeBatchSink tee;
  tee.Add(&counter);
  tee.Add(&failing);
  std::unique_ptr<TraceParser> parser = SystemTraceParser(*traced);
  bool threw = false;
  {
    RefBatchPipeline analysis(&tee);
    TracePipeline pipeline(
        [p = parser.get()](const uint32_t* words, size_t count) { p->Feed(words, count); });
    parser->SetBatchSink(&analysis);
    traced->SetTraceSink([&pipeline](const uint32_t* words, size_t count) {
      pipeline.Produce(words, count);
    });
    try {
      traced->Run(options.max_instructions);
      pipeline.Finish();
      parser->Finish();
      analysis.Finish();
    } catch (const Error& e) {
      threw = true;
      EXPECT_STREQ(e.what(), "sink failed mid-stream");
    }
    traced->SetTraceSink(nullptr);
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(batches, 5u);
}

// A pipelined experiment runs its tee on an analysis thread: one phase on
// a track of its own, the reference ring's counters under
// trace.pipeline.analysis., and the parse's stall on that ring in the
// report's trace block.  None of it exists synchronously.
TEST(PipelinedExperiment, AnalysisRunsOnAThreadOfItsOwn) {
  for (bool pipeline : {true, false}) {
    SCOPED_TRACE(pipeline ? "pipelined" : "synchronous");
    EventRecorder events;
    ExperimentOptions options;
    options.pipeline = pipeline;
    options.events = &events;
    const ExperimentResult result = RunExperiment(PaperWorkload("sed", 0.02), options);
    std::map<std::string, std::set<uint32_t>> tracks;
    std::map<std::string, size_t> counts;
    for (const TimelineEvent& e : events.events()) {
      if (!e.instant) {
        tracks[e.name].insert(e.tid);
        ++counts[e.name];
      }
    }
    if (!pipeline) {
      EXPECT_EQ(counts.count("analysis.sinks"), 0u);
      EXPECT_FALSE(result.stats.Has("trace.pipeline.analysis.refs"));
      EXPECT_EQ(result.parse_stall_wall_us, 0u);
      continue;
    }
    EXPECT_EQ(counts["analysis.sinks"], 1u);
    const uint32_t analysis_tid = *tracks["analysis.sinks"].begin();
    for (const char* phase : {"run.traced", "run.measured", "parser.feed"}) {
      EXPECT_EQ(tracks[phase].count(analysis_tid), 0u) << phase;
    }
    const uint64_t refs = result.stats.CounterValue("parser.refs");
    EXPECT_EQ(result.stats.CounterValue("trace.pipeline.analysis.refs"), refs);
    EXPECT_EQ(result.stats.CounterValue("trace.pipeline.analysis.chunks"),
              (refs + kRefBatchCapacity - 1) / kRefBatchCapacity);
    EXPECT_LE(result.stats.CounterValue("trace.pipeline.analysis.max_occupancy"),
              kRefPipelineDepth);
    const JsonValue report = ParseJson(RunReportJson({result}, {}, RunReportOptions{}));
    const JsonValue& trace = report.At("experiments").array.at(0).At("trace");
    EXPECT_EQ(trace.At("parse_stall_wall_us").number,
              static_cast<double>(result.parse_stall_wall_us));
  }
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

// The tracks a timeline's complete events of each name were recorded on.
std::map<std::string, std::set<uint32_t>> PhaseTracks(const std::vector<TimelineEvent>& events) {
  std::map<std::string, std::set<uint32_t>> tracks;
  for (const TimelineEvent& e : events) {
    if (!e.instant) {
      tracks[e.name].insert(e.tid);
    }
  }
  return tracks;
}

// The calling thread's track number.
uint32_t CallerTid() {
  EventRecorder probe;
  probe.Instant("probe");
  return probe.events().at(0).tid;
}

// A pipelined experiment runs on four threads: the measured run on its
// helper, the parser on the consumer, the sinks on the analysis thread,
// everything else on the caller.  Each records on a track of its own, and
// every track nests properly.
TEST(PipelinedExperiment, EveryThreadRecordsAWellNestedTrackOfItsOwn) {
  const std::pair<const char*, Personality> runs[] = {{"sed", Personality::kUltrix},
                                                      {"eqntott", Personality::kMach}};
  for (const auto& [name, personality] : runs) {
    SCOPED_TRACE(name);
    EventRecorder events;
    ExperimentOptions options;
    options.pipeline = true;
    options.personality = personality;
    options.events = &events;
    RunExperiment(PaperWorkload(name, 0.02), options);
    EXPECT_EQ(ImproperlyNestedPairs(events.events()), 0u);

    auto tracks = PhaseTracks(events.events());
    const std::set<uint32_t> caller = {CallerTid()};
    EXPECT_EQ(tracks["experiment:" + std::string(name)], caller);
    for (const char* phase : {"build.measured", "build.traced", "trace.pipeline_wait",
                              "analysis.finish", "stats.snapshot"}) {
      EXPECT_EQ(tracks[phase], caller) << phase;
    }
    for (const char* phase : {"run.measured", "run.traced", "parser.feed", "analysis.sinks"}) {
      ASSERT_EQ(tracks[phase].size(), 1u) << phase;
    }
    const std::set<uint32_t> threads = {
        *tracks["run.measured"].begin(), *tracks["run.traced"].begin(),
        *tracks["parser.feed"].begin(), *tracks["analysis.sinks"].begin()};
    EXPECT_EQ(threads.size(), 4u);
  }
}

// Pooled suite workers share one recorder, each on its own tracks: every
// experiment's phases appear exactly once, inside its experiment phase on
// its worker's track, and every track nests properly.
TEST(ExperimentSuite, PooledWorkersShareOneWellNestedTimeline) {
  const std::vector<WorkloadSpec> workloads = {PaperWorkload("sed", 0.02),
                                               PaperWorkload("egrep", 0.02),
                                               PaperWorkload("eqntott", 0.02),
                                               PaperWorkload("compress", 0.02)};
  EventRecorder events;
  ExperimentOptions options;
  options.events = &events;
  options.jobs = 2;
  const std::vector<ExperimentResult> results = RunSuite(workloads, options);
  ASSERT_EQ(results.size(), workloads.size());
  const std::vector<TimelineEvent>& timeline = events.events();
  EXPECT_EQ(ImproperlyNestedPairs(timeline), 0u);

  auto count = [&timeline](const std::string& name) {
    size_t n = 0;
    for (const TimelineEvent& e : timeline) {
      n += !e.instant && e.name == name;
    }
    return n;
  };
  EXPECT_EQ(count("run.measured"), workloads.size());
  for (const ExperimentResult& r : results) {
    SCOPED_TRACE(r.workload);
    ASSERT_EQ(count("experiment:" + r.workload), 1u);
    const TimelineEvent* experiment = nullptr;
    for (const TimelineEvent& e : timeline) {
      if (e.name == "experiment:" + r.workload) {
        experiment = &e;
      }
    }
    const uint64_t end = experiment->wall_start_us + experiment->wall_dur_us;
    std::map<std::string, size_t> inside;
    for (const TimelineEvent& e : timeline) {
      if (!e.instant && e.tid == experiment->tid && e.depth == 1 &&
          e.wall_start_us >= experiment->wall_start_us && e.wall_start_us + e.wall_dur_us <= end) {
        ++inside[e.name];
      }
    }
    for (const char* phase :
         {"build.measured", "build.traced", "run.traced", "analysis.finish", "stats.snapshot"}) {
      EXPECT_EQ(inside[phase], 1u) << phase;
    }
  }
}

}  // namespace
}  // namespace wrl
