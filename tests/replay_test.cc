// The capture-once / analyze-many contract: a TraceLog stores the drained
// trace words losslessly, and a streaming ReplayEngine parse of the capture
// produces bit-identical parser stats, Prediction, and TLB miss counts to
// the live path fed one reference at a time — on every Run().
// Experiments price replay variants on the same live analysis tee as the
// primary simulator.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "harness/bare_runtime.h"
#include "harness/experiment.h"
#include "harness/replay_engine.h"
#include "harness/report.h"
#include "sim/predictor.h"
#include "sim/tlb_sim.h"
#include "support/json.h"
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
  ASSERT_GT(live.stats.refs, 0u);

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

// Field-by-field equality of two collected reference streams.
void ExpectSameRefs(const std::vector<TraceRef>& a, const std::vector<TraceRef>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].addr == b[i].addr && a[i].kind == b[i].kind && a[i].bytes == b[i].bytes &&
                a[i].pid == b[i].pid && a[i].kernel == b[i].kernel && a[i].idle == b[i].idle)
        << "ref " << i << " diverged";
  }
}

// A config whose sink appends every delivered reference to `*refs`.
ReplayEngine::Config Collector(std::vector<TraceRef>* refs) {
  return {"collect", [refs] {
            return std::make_unique<RefFnSink>([refs](const TraceRef& r) { refs->push_back(r); });
          }};
}

// Run() parses again on every call: two calls on one engine over a
// multi-chunk capture deliver the identical stream to fresh sinks.
TEST(ReplayEngine, EveryRunStreamsTheWholeCapture) {
  BareBuild build = BuildBareTraced(kBody);
  BareTraceRun run = RunBareTraced(build);
  LiveOutcome live = RunLive(build, run);

  TraceLog log;
  const size_t slice = run.trace_words.size() / 5 + 1;
  for (size_t off = 0; off < run.trace_words.size(); off += slice) {
    log.Append(run.trace_words.data() + off, std::min(slice, run.trace_words.size() - off));
  }
  ASSERT_GT(log.chunks(), 1u);
  ReplaySource source;
  source.log = &log;
  source.kernel_table = &build.table;
  ReplayEngine engine(std::move(source));

  std::vector<TraceRef> streams[2];
  for (int call = 0; call < 2; ++call) {
    SCOPED_TRACE(call);
    std::vector<ReplayEngine::Outcome> outcomes = engine.Run(
        {Collector(&streams[call]),
         {"sim", [] { return std::make_unique<TraceDrivenSimulator>(PredictorConfig()); }},
         {"tlb", [] { return std::make_unique<TlbSimulator>(); }}});
    ASSERT_EQ(outcomes.size(), 3u);

    const TraceParserStats& stats = engine.parser_stats();
    EXPECT_EQ(stats.words, live.stats.words);
    EXPECT_EQ(stats.refs, live.stats.refs);
    EXPECT_EQ(stats.blocks, live.stats.blocks);
    EXPECT_EQ(stats.ifetches, live.stats.ifetches);
    EXPECT_EQ(stats.loads, live.stats.loads);
    EXPECT_EQ(stats.stores, live.stats.stores);
    EXPECT_EQ(stats.markers, live.stats.markers);
    EXPECT_EQ(stats.validation_errors, 0u);
    ASSERT_GT(streams[call].size(), 0u);
    EXPECT_EQ(streams[call].size(), stats.refs);
    for (const ReplayEngine::Outcome& out : outcomes) {
      EXPECT_EQ(out.refs, stats.refs) << out.name;
      EXPECT_GT(out.wall_us, 0u) << out.name;
    }
    auto* sim = static_cast<TraceDrivenSimulator*>(outcomes[1].sink.get());
    ExpectSamePrediction(sim->Finish(), live.prediction);
    auto* tlb = static_cast<TlbSimulator*>(outcomes[2].sink.get());
    EXPECT_EQ(tlb->stats().utlb_misses, live.tlb.utlb_misses);
    EXPECT_EQ(tlb->stats().user_refs, live.tlb.user_refs);
  }
  ExpectSameRefs(streams[1], streams[0]);
}

// The §4.3 defenses hold on replay: a corrupted block key is counted and
// described, even with no analysis config attached.
TEST(ReplayEngine, CorruptedBlockKeyIsReported) {
  BareBuild build = BuildBareTraced(kBody);
  BareTraceRun run = RunBareTraced(build);
  std::vector<uint32_t> words = run.trace_words;
  auto key = std::find_if(words.begin(), words.end(),
                          [&build](uint32_t w) { return build.table.Find(w) != nullptr; });
  ASSERT_NE(key, words.end());
  *key ^= 2;  // A misaligned address is never a block key.

  TraceLog log;
  log.Append(words);
  ReplaySource source;
  source.log = &log;
  source.kernel_table = &build.table;
  ReplayEngine engine(std::move(source));
  EXPECT_TRUE(engine.Run({}).empty());
  EXPECT_GT(engine.parser_stats().validation_errors, 0u);
  EXPECT_FALSE(engine.parser_errors().empty());
}

// The end-to-end harness contract: a replay variant configured identically
// to the primary reproduces the primary's prediction exactly, and riding
// the tee beside it leaves the experiment's own numbers untouched.
TEST(ReplayExperiment, IdenticalVariantReproducesThePrimary) {
  WorkloadSpec w;
  w.name = "unit";
  w.description = "tiny compute kernel";
  w.source = kBody;

  ExperimentOptions plain_options;
  ExperimentResult plain = RunExperiment(w, plain_options);

  ExperimentOptions variant_options;
  ReplayVariant baseline;
  baseline.name = "baseline";  // Identical to the primary configuration.
  variant_options.replay_variants.push_back(baseline);
  ExperimentResult with_variant = RunExperiment(w, variant_options);

  EXPECT_EQ(with_variant.measured_cycles, plain.measured_cycles);
  EXPECT_EQ(with_variant.parser_errors, plain.parser_errors);
  EXPECT_EQ(with_variant.trace_words, plain.trace_words);
  ExpectSamePrediction(with_variant.prediction, plain.prediction);

  ASSERT_EQ(with_variant.replays.size(), 1u);
  ExpectSamePrediction(with_variant.replays[0].prediction, with_variant.prediction);
}

// The figure3-whatif shape, the one experiment where five sinks share the
// analysis tee: a paper workload with the profiler, the sweep, a
// geometry-only variant the sweep absorbs, and a slowmem variant with its
// own simulator.  Each sink's output equals its output when it rides the
// tee alone beside the primary simulator, in both transport modes, and
// each sink reports its own busy time.
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
  }
}

// Every analysis-side stretch of an experiment after the traced run is a
// named phase of its timeline, and the report gives every sink on the tee
// its busy time, so a report can split the parse's wall time by sink.
TEST(ReplayExperiment, TimelineNamesTheAnalysisTailAndReportTimesEverySink) {
  ExperimentOptions options;
  options.profile = true;
  options.sweep.tlb_max_entries = 64;
  ReplayVariant slowmem;
  slowmem.name = "slowmem";
  slowmem.memsys.read_miss_penalty = 30;
  options.replay_variants = {slowmem};
  options.archive_path = testing::TempDir() + "timeline_phases.wrl";
  const ExperimentResult result = RunExperiment(PaperWorkload("sed", 0.02), options);
  std::remove(options.archive_path.c_str());

  for (const char* phase : {"trace.archive_finalize", "analysis.finish", "stats.snapshot"}) {
    size_t count = 0;
    for (const TimelineEvent& e : result.timeline) {
      count += e.name == phase && !e.instant;
    }
    EXPECT_EQ(count, 1u) << phase;
  }
  EXPECT_GT(result.prediction_wall_us, 0u);
  EXPECT_GT(result.profile_wall_us, 0u);
  EXPECT_GT(result.sweep.wall_us, 0u);
  EXPECT_GT(result.replays.at(0).wall_us, 0u);

  const JsonValue report = ParseJson(RunReportJson({result}, {}, RunReportOptions{}));
  const JsonValue& experiment = report.At("experiments").array.at(0);
  EXPECT_EQ(experiment.At("predicted").At("wall_us").number,
            static_cast<double>(result.prediction_wall_us));
  EXPECT_EQ(experiment.At("profile_wall_us").number, static_cast<double>(result.profile_wall_us));
}

}  // namespace
}  // namespace wrl
