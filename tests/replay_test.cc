// The capture-once / replay-many pipeline's contract: a TraceLog stores the
// drained trace words losslessly, and a batched replay of the capture
// produces bit-identical parser stats, Prediction, and TLB miss counts to
// the live path fed one reference at a time — at any batch size, serial or
// on a worker pool.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "harness/bare_runtime.h"
#include "harness/experiment.h"
#include "harness/replay_engine.h"
#include "sim/predictor.h"
#include "sim/tlb_sim.h"
#include "support/rng.h"
#include "trace/parser.h"
#include "trace/trace_log.h"
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

std::vector<uint32_t> ReplayAll(const TraceLog& log, std::vector<size_t>* chunks = nullptr) {
  std::vector<uint32_t> words;
  log.Replay([&](const uint32_t* w, size_t n) {
    words.insert(words.end(), w, w + n);
    if (chunks != nullptr) {
      chunks->push_back(n);
    }
  });
  return words;
}

TEST(TraceLog, RoundtripPreservesWordsAndChunks) {
  TraceLog log;
  std::vector<uint32_t> a = {0x10000010, 0x00500000, 0x80001234};
  std::vector<uint32_t> b = {0x10000014, 0x10000018, 0x7fff0000, 0x00000000};
  log.Append(a.data(), a.size());
  log.Append(b.data(), b.size());
  EXPECT_EQ(log.words(), a.size() + b.size());
  EXPECT_EQ(log.chunks(), 2u);

  std::vector<size_t> chunks;
  std::vector<uint32_t> out = ReplayAll(log, &chunks);
  std::vector<uint32_t> expect = a;
  expect.insert(expect.end(), b.begin(), b.end());
  EXPECT_EQ(out, expect);
  EXPECT_EQ(chunks, (std::vector<size_t>{a.size(), b.size()}));
}

TEST(TraceLog, RoundtripRandomWordsExactly) {
  // Addresses across every top nibble, adversarial for the delta packer.
  Rng rng(99);
  TraceLog log;
  std::vector<uint32_t> all;
  for (int chunk = 0; chunk < 7; ++chunk) {
    std::vector<uint32_t> words(1 + rng.Below(300));
    for (auto& w : words) {
      w = rng.Below(0xffffffffu);
    }
    log.Append(words.data(), words.size());
    all.insert(all.end(), words.begin(), words.end());
  }
  EXPECT_EQ(ReplayAll(log), all);
  EXPECT_EQ(log.raw_bytes(), all.size() * 4);
  EXPECT_GT(log.stored_bytes(), 0u);
}

TEST(TraceLog, PacksRealTraceSmallerThanRaw) {
  BareBuild build = BuildBareTraced(kBody);
  BareTraceRun run = RunBareTraced(build);
  ASSERT_FALSE(run.trace_words.empty());
  TraceLog log;
  log.Append(run.trace_words.data(), run.trace_words.size());
  EXPECT_EQ(ReplayAll(log), run.trace_words);
  // Real traces are delta-friendly; the varint packing must win.
  EXPECT_GT(log.CompressionRatio(), 1.0);
  EXPECT_LT(log.stored_bytes(), log.raw_bytes());
}

struct LiveOutcome {
  TraceParserStats stats;
  Prediction prediction;
  TlbSimStats tlb;
};

// The reference path: live analysis in lockstep with the parse, each
// reference handed over as soon as it is rebuilt.
LiveOutcome RunLive(const BareBuild& build, const BareTraceRun& run) {
  LiveOutcome out;
  TraceDrivenSimulator sim((PredictorConfig()));
  TlbSimulator tlb;
  TraceParser parser(&build.table);
  parser.SetInitialContext(kKernelPid);
  TeeBatchSink tee;
  tee.Add(&sim);
  tee.Add(&tlb);
  parser.SetBatchSink(&tee, 1);
  parser.Feed(run.trace_words);
  parser.Finish();
  out.stats = parser.stats();
  out.prediction = sim.Finish();
  out.tlb = tlb.stats();
  return out;
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

TEST(ReplayEngine, BatchedReplayBitIdenticalToLive) {
  BareBuild build = BuildBareTraced(kBody);
  BareTraceRun run = RunBareTraced(build);
  LiveOutcome live = RunLive(build, run);

  TraceLog log;
  log.Append(run.trace_words.data(), run.trace_words.size());
  ReplaySource source;
  source.log = &log;
  source.kernel_table = &build.table;
  ReplayEngine engine(std::move(source));

  std::vector<ReplayEngine::Config> configs;
  configs.push_back(
      {"sim", [] { return std::make_unique<TraceDrivenSimulator>(PredictorConfig()); }});
  configs.push_back({"tlb", [] { return std::make_unique<TlbSimulator>(); }});

  std::vector<ReplayEngine::Outcome> outcomes = engine.Run(configs);
  ASSERT_EQ(outcomes.size(), 2u);

  // The single parse saw the same stream the live parser saw.
  EXPECT_EQ(engine.parser_stats().refs, live.stats.refs);
  EXPECT_EQ(engine.parser_stats().words, live.stats.words);
  EXPECT_EQ(engine.parser_stats().blocks, live.stats.blocks);
  EXPECT_EQ(engine.parser_stats().validation_errors, live.stats.validation_errors);

  auto* sim = static_cast<TraceDrivenSimulator*>(outcomes[0].sink.get());
  ExpectSamePrediction(sim->Finish(), live.prediction);
  auto* tlb = static_cast<TlbSimulator*>(outcomes[1].sink.get());
  EXPECT_EQ(tlb->stats().utlb_misses, live.tlb.utlb_misses);
  EXPECT_EQ(tlb->stats().user_refs, live.tlb.user_refs);
}

TEST(ReplayEngine, OddBatchSizesDeliverIdenticalResults) {
  BareBuild build = BuildBareTraced(kBody);
  BareTraceRun run = RunBareTraced(build);
  LiveOutcome live = RunLive(build, run);

  TraceLog log;
  log.Append(run.trace_words.data(), run.trace_words.size());
  ReplaySource source;
  source.log = &log;
  source.kernel_table = &build.table;
  ReplayEngine engine(std::move(source));

  for (size_t batch_refs : {size_t{1}, size_t{7}, size_t{100}, kRefBatchCapacity}) {
    SCOPED_TRACE(batch_refs);
    ReplayEngine::Options options;
    options.batch_refs = batch_refs;
    std::vector<ReplayEngine::Outcome> outcomes =
        engine.Run({{"tlb", [] { return std::make_unique<TlbSimulator>(); }}}, options);
    auto* tlb = static_cast<TlbSimulator*>(outcomes[0].sink.get());
    EXPECT_EQ(tlb->stats().utlb_misses, live.tlb.utlb_misses);
  }
}

TEST(ReplayEngine, WorkerPoolIsDeterministic) {
  BareBuild build = BuildBareTraced(kBody);
  BareTraceRun run = RunBareTraced(build);

  TraceLog log;
  log.Append(run.trace_words.data(), run.trace_words.size());
  ReplaySource source;
  source.log = &log;
  source.kernel_table = &build.table;
  ReplayEngine engine(std::move(source));

  // Six configs with distinct wired sizes, serial vs pooled.
  std::vector<ReplayEngine::Config> configs;
  for (unsigned wired : {1u, 2u, 4u, 8u, 16u, 32u}) {
    configs.push_back({"wired" + std::to_string(wired),
                       [wired] { return std::make_unique<TlbSimulator>(wired); }});
  }
  ReplayEngine::Options serial;
  ReplayEngine::Options pooled;
  pooled.jobs = 4;
  std::vector<ReplayEngine::Outcome> a = engine.Run(configs, serial);
  std::vector<ReplayEngine::Outcome> b = engine.Run(configs, pooled);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name) << i;
    EXPECT_EQ(static_cast<TlbSimulator*>(a[i].sink.get())->stats().utlb_misses,
              static_cast<TlbSimulator*>(b[i].sink.get())->stats().utlb_misses)
        << i;
  }
}

// The end-to-end harness contract: a capture-replay experiment reports the
// same measured and predicted numbers as the live-analysis experiment, and
// a replay variant configured identically to the primary reproduces the
// primary's prediction exactly.
TEST(ReplayExperiment, CaptureReplayMatchesLiveExperiment) {
  WorkloadSpec w;
  w.name = "unit";
  w.description = "tiny compute kernel";
  w.source = kBody;

  ExperimentOptions live_options;
  ExperimentResult live = RunExperiment(w, live_options);

  ExperimentOptions capture_options;
  capture_options.capture_replay = true;
  ReplayVariant baseline;
  baseline.name = "baseline";  // Identical to the primary configuration.
  capture_options.replay_variants.push_back(baseline);
  ExperimentResult captured = RunExperiment(w, capture_options);

  EXPECT_EQ(captured.measured_cycles, live.measured_cycles);
  EXPECT_EQ(captured.parser_errors, live.parser_errors);
  EXPECT_EQ(captured.trace_words, live.trace_words);
  ExpectSamePrediction(captured.prediction, live.prediction);

  ASSERT_EQ(captured.replays.size(), 1u);
  ExpectSamePrediction(captured.replays[0].prediction, captured.prediction);
  EXPECT_GT(captured.trace_log_words, 0u);
  EXPECT_GT(captured.trace_compression, 0.0);
}

// The figure3-whatif shape, the one experiment where five sinks share the
// analysis tee: a paper workload in capture mode with the profiler, the
// sweep, a geometry-only variant the sweep absorbs, and a slowmem variant
// with its own simulator.  Each sink's output equals its output when it
// rides the tee alone beside the primary simulator, in both transport
// modes, and each sink reports its own busy time.
TEST(ReplayExperiment, SharedTeeMatchesSingleSinkRuns) {
  const WorkloadSpec w = PaperWorkload("sed", 0.05);
  ReplayVariant geometry;
  geometry.name = "cache16k";
  geometry.memsys.icache.size_bytes = 16 * 1024;
  geometry.memsys.dcache.size_bytes = 16 * 1024;
  ReplayVariant slowmem;
  slowmem.name = "slowmem";
  slowmem.memsys.read_miss_penalty = 30;
  slowmem.memsys.uncached_penalty = 30;

  ExperimentOptions single;
  single.pipeline = false;
  single.capture_replay = true;
  const ExperimentResult primary = RunExperiment(w, single);
  ExperimentOptions profile_only = single;
  profile_only.profile = true;
  const ExperimentResult profiled = RunExperiment(w, profile_only);
  ExperimentOptions sweep_only = single;
  sweep_only.sweep.enabled = true;
  sweep_only.sweep.tlb_max_entries = 64;
  sweep_only.replay_variants = {geometry};
  const ExperimentResult swept = RunExperiment(w, sweep_only);
  ExperimentOptions slowmem_only = single;
  slowmem_only.replay_variants = {slowmem};
  const ExperimentResult slow = RunExperiment(w, slowmem_only);

  for (bool pipeline : {false, true}) {
    SCOPED_TRACE(pipeline ? "pipelined" : "synchronous");
    ExperimentOptions options = sweep_only;
    options.pipeline = pipeline;
    options.profile = true;
    options.replay_variants = {geometry, slowmem};
    const ExperimentResult shared = RunExperiment(w, options);
    EXPECT_EQ(shared.parser_errors, 0u);

    ExpectSamePrediction(shared.prediction, primary.prediction);
    EXPECT_EQ(shared.profile.CanonicalJson(), profiled.profile.CanonicalJson());
    ASSERT_TRUE(shared.sweep_ran);
    EXPECT_EQ(shared.sweep.tlb_lru_misses, swept.sweep.tlb_lru_misses);
    ASSERT_EQ(shared.replays.size(), 2u);
    EXPECT_TRUE(shared.replays[0].swept);
    ExpectSamePrediction(shared.replays[0].prediction, swept.replays[0].prediction);
    EXPECT_FALSE(shared.replays[1].swept);
    ExpectSamePrediction(shared.replays[1].prediction, slow.replays[0].prediction);

    const uint64_t parser_refs = shared.stats.CounterValue("parser.refs");
    EXPECT_EQ(shared.profile.totals.refs, parser_refs);
    for (const ReplayVariantResult& v : shared.replays) {
      EXPECT_EQ(v.refs, parser_refs) << v.name;
    }
    EXPECT_GT(shared.replays[1].wall_us, 0u);
    EXPECT_GT(shared.sweep.wall_us, 0u);
    EXPECT_GT(shared.sweep_mrefs_per_sec, 0.0);
    EXPECT_GT(shared.replay_mrefs_per_sec, 0.0);
  }
}

}  // namespace
}  // namespace wrl
