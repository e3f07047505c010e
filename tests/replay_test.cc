// The capture-once / analyze-many contract: a TraceLog stores the drained
// trace words losslessly, and a streaming ReplayEngine parse of the capture
// produces bit-identical parser stats, Prediction, and TLB miss counts to
// the live path fed one reference at a time — on every Run().
// Experiments price replay variants on the same live analysis tee as the
// primary simulator.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/bare_runtime.h"
#include "harness/experiment.h"
#include "harness/replay_engine.h"
#include "harness/report.h"
#include "kernel/system_build.h"
#include "sim/predictor.h"
#include "sim/tlb_sim.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/strings.h"
#include "trace/parser.h"
#include "trace/trace_archive.h"
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

// Every field of a prediction, for mismatch messages.
std::string Fields(const Prediction& p) {
  const MemSysStats& m = p.memsys_stats;
  return StrFormat(
      "insts %llu idle %llu mem %llu arith %llu io %.17g utlb %llu synth %llu user %llu "
      "kernel %llu user_stall %llu kernel_stall %llu | fetches %llu imiss %llu reads %llu "
      "dmiss %llu writes %llu wb %llu ureads %llu uwrites %llu",
      static_cast<unsigned long long>(p.instructions),
      static_cast<unsigned long long>(p.idle_instructions),
      static_cast<unsigned long long>(p.mem_stall_cycles),
      static_cast<unsigned long long>(p.arith_stall_cycles), p.io_stall_cycles,
      static_cast<unsigned long long>(p.utlb_misses),
      static_cast<unsigned long long>(p.synthesized_refs),
      static_cast<unsigned long long>(p.user_instructions),
      static_cast<unsigned long long>(p.kernel_instructions),
      static_cast<unsigned long long>(p.user_stall_cycles),
      static_cast<unsigned long long>(p.kernel_stall_cycles),
      static_cast<unsigned long long>(m.inst_fetches),
      static_cast<unsigned long long>(m.icache_misses),
      static_cast<unsigned long long>(m.data_reads),
      static_cast<unsigned long long>(m.dcache_misses),
      static_cast<unsigned long long>(m.data_writes),
      static_cast<unsigned long long>(m.wb_stall_cycles),
      static_cast<unsigned long long>(m.uncached_reads),
      static_cast<unsigned long long>(m.uncached_writes));
}

// Whole-prediction equality: every counter, the user/kernel stall split and
// the memory-system statistics.
void ExpectSamePrediction(const Prediction& a, const Prediction& b) {
  EXPECT_TRUE(a == b) << Fields(a) << "\n  vs\n" << Fields(b);
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

// The figure3-whatif shape, the one experiment where several sinks share
// the analysis tee: a paper workload with the profiler, the sweep, two
// variants that are lanes of the primary simulator (a smaller cache and a
// slower memory), and a variant whose TLB wiring gives it its own pass.
// Each sink's output equals its output when it rides the tee alone beside
// the primary simulator, in both transport modes, and each pass reports
// its own busy time.
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
  ReplayVariant wired16;
  wired16.name = "wired16";
  wired16.tlb_wired = 16;
  const std::vector<ReplayVariant> variants = {geometry, slowmem, wired16};

  ExperimentOptions single;
  single.pipeline = false;
  const ExperimentResult primary = RunExperiment(w, single);
  ExperimentOptions profile_only = single;
  profile_only.profile = true;
  const ExperimentResult profiled = RunExperiment(w, profile_only);
  ExperimentOptions sweep_only = single;
  sweep_only.sweep.icache.push_back({16, 8 * 1024, 32 * 1024});
  sweep_only.sweep.tlb_max_entries = 64;
  const ExperimentResult swept = RunExperiment(w, sweep_only);
  std::vector<ExperimentResult> alone;
  for (const ReplayVariant& v : variants) {
    ExperimentOptions variant_only = single;
    variant_only.replay_variants = {v};
    alone.push_back(RunExperiment(w, variant_only));
  }

  for (bool pipeline : {false, true}) {
    SCOPED_TRACE(pipeline ? "pipelined" : "synchronous");
    ExperimentOptions options = sweep_only;
    options.pipeline = pipeline;
    options.profile = true;
    options.replay_variants = variants;
    const ExperimentResult shared = RunExperiment(w, options);
    EXPECT_EQ(shared.parser_errors, 0u);

    ExpectSamePrediction(shared.prediction, primary.prediction);
    EXPECT_EQ(shared.profile.CanonicalJson(), profiled.profile.CanonicalJson());
    ASSERT_TRUE(shared.sweep_ran);
    EXPECT_EQ(shared.sweep.tlb_lru_misses, swept.sweep.tlb_lru_misses);
    ASSERT_EQ(shared.sweep.icache.size(), swept.sweep.icache.size());
    for (size_t i = 0; i < shared.sweep.icache.size(); ++i) {
      EXPECT_EQ(shared.sweep.icache[i].misses, swept.sweep.icache[i].misses);
    }
    ASSERT_EQ(shared.replays.size(), variants.size());
    for (size_t i = 0; i < variants.size(); ++i) {
      SCOPED_TRACE(variants[i].name);
      EXPECT_EQ(shared.replays[i].name, variants[i].name);
      ExpectSamePrediction(shared.replays[i].prediction, alone[i].replays[0].prediction);
      EXPECT_EQ(shared.replays[i].tlb, alone[i].replays[0].tlb);
    }

    const uint64_t parser_refs = shared.stats.CounterValue("parser.refs");
    EXPECT_EQ(shared.profile.totals.refs, parser_refs);
    for (const ReplayVariantResult& v : shared.replays) {
      EXPECT_EQ(v.refs, parser_refs) << v.name;
    }
    // The lanes ride the primary's pass; wired16 walks its own.
    EXPECT_EQ(shared.replays[0].wall_us, 0u);
    EXPECT_EQ(shared.replays[1].wall_us, 0u);
    EXPECT_GT(shared.replays[2].wall_us, 0u);
    EXPECT_GT(shared.prediction_wall_us, 0u);
    EXPECT_GT(shared.sweep.wall_us, 0u);
    EXPECT_GT(shared.sweep_mrefs_per_sec, 0.0);
  }
}

// Every analysis-side stretch of an experiment after the traced run is a
// named phase of its timeline, and the report gives every sink on the tee
// its busy time, so a report can split the parse's wall time by sink.
TEST(ReplayExperiment, TimelineNamesTheAnalysisTailAndReportTimesEverySink) {
  EventRecorder events;
  ExperimentOptions options;
  options.events = &events;
  options.profile = true;
  options.sweep.tlb_max_entries = 64;
  ReplayVariant slowmem;
  slowmem.name = "slowmem";
  slowmem.memsys.read_miss_penalty = 30;
  ReplayVariant wired16;
  wired16.name = "wired16";
  wired16.tlb_wired = 16;
  options.replay_variants = {slowmem, wired16};
  options.archive_path = testing::TempDir() + "timeline_phases.wrl";
  const ExperimentResult result = RunExperiment(PaperWorkload("sed", 0.02), options);
  std::remove(options.archive_path.c_str());

  for (const char* phase : {"trace.archive_finalize", "analysis.finish", "stats.snapshot"}) {
    size_t count = 0;
    for (const TimelineEvent& e : events.events()) {
      count += e.name == phase && !e.instant;
    }
    EXPECT_EQ(count, 1u) << phase;
  }
  EXPECT_GT(result.prediction_wall_us, 0u);
  EXPECT_GT(result.profile_wall_us, 0u);
  EXPECT_GT(result.sweep.wall_us, 0u);
  // slowmem is a lane of the primary's pass, whose time is the primary's.
  EXPECT_EQ(result.replays.at(0).wall_us, 0u);
  EXPECT_GT(result.replays.at(1).wall_us, 0u);

  const JsonValue report = ParseJson(RunReportJson({result}, {}, RunReportOptions{}));
  const JsonValue& experiment = report.At("experiments").array.at(0);
  EXPECT_EQ(experiment.At("predicted").At("wall_us").number,
            static_cast<double>(result.prediction_wall_us));
  EXPECT_EQ(experiment.At("profile_wall_us").number, static_cast<double>(result.profile_wall_us));
  const JsonValue& replays = experiment.At("replays");
  ASSERT_EQ(replays.array.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(replays.array[i].At("wall_us").number,
              static_cast<double>(result.replays[i].wall_us));
  }
}

// The lane oracle: every what-if variant of every workload × personality
// pair is exactly what a simulator of its own reports.  The experiments
// run as figure3-whatif runs them (the sweep with a 64-entry TLB curve, an
// archive tee); each variant's dedicated simulator replays the archive.
// The variants are figure3-whatif's four, one that changes every
// memory-system parameter at once, a second wired16 variant with its own
// memory system, which shares wired16's pass, and a page-map draw, which
// opens a pass of its own.
TEST(ReplayExperiment, EveryVariantMatchesADedicatedSimulator) {
  std::vector<ReplayVariant> variants(7);
  variants[0].name = "cache32k";
  variants[0].memsys.icache.size_bytes = 32 * 1024;
  variants[0].memsys.dcache.size_bytes = 32 * 1024;
  variants[1].name = "cache16k";
  variants[1].memsys.icache.size_bytes = 16 * 1024;
  variants[1].memsys.dcache.size_bytes = 16 * 1024;
  variants[2].name = "slowmem";
  variants[2].memsys.read_miss_penalty = 30;
  variants[2].memsys.uncached_penalty = 30;
  variants[3].name = "wired16";
  variants[3].tlb_wired = 16;
  variants[4].name = "everything";
  variants[4].memsys.icache = {8 * 1024, 32};
  variants[4].memsys.dcache = {32 * 1024, 16};
  variants[4].memsys.read_miss_penalty = 22;
  variants[4].memsys.uncached_penalty = 27;
  variants[4].memsys.wb_depth = 2;
  variants[4].memsys.wb_cycles_per_entry = 9;
  variants[5].name = "wired16small";
  variants[5].tlb_wired = 16;
  variants[5].memsys.icache.size_bytes = 4 * 1024;
  variants[5].memsys.dcache = {8 * 1024, 8};
  variants[5].memsys.wb_depth = 3;
  variants[6].name = "remap";
  variants[6].page_map_mult = 7;

  const std::string path = testing::TempDir() + "lane_oracle.wrl";
  for (Personality personality : {Personality::kUltrix, Personality::kMach}) {
    for (const WorkloadSpec& w : PaperWorkloads(0.01)) {
      SCOPED_TRACE(w.name + "/" + PersonalityName(personality));
      ExperimentOptions options;
      options.personality = personality;
      options.sweep.enabled = true;
      options.sweep.tlb_max_entries = 64;
      options.replay_variants = variants;
      options.archive_path = path;
      const ExperimentResult result = RunExperiment(w, options);
      ASSERT_EQ(result.parser_errors, 0u);
      ASSERT_EQ(result.replays.size(), variants.size());
      // wired16 and remap open the passes beyond the primary's; every
      // other variant is a lane, whose time is its pass's.
      for (size_t i = 0; i < variants.size(); ++i) {
        EXPECT_EQ(result.replays[i].wall_us > 0, i == 3 || i == 6) << variants[i].name;
      }

      // Each variant on a simulator of its own, replayed from the archive
      // with the capturing system's tables.
      const std::unique_ptr<SystemInstance> measured =
          BuildSystem(ExperimentSystemConfig(w, options, false));
      const std::unique_ptr<SystemInstance> traced =
          BuildSystem(ExperimentSystemConfig(w, options, true));
      const PredictorConfig pconfig = ExperimentPredictorConfig(*measured, options);
      ArchiveReader archive(path);
      ReplaySource source;
      source.log = &archive;
      source.kernel_table = &traced->kernel_table();
      for (const SystemInstance::UserSpace& space : traced->user_spaces()) {
        source.user_tables.emplace_back(space.pid, space.table);
      }
      ReplayEngine engine(std::move(source));
      std::vector<ReplayEngine::Config> configs;
      for (const ReplayVariant& v : variants) {
        PredictorConfig vconfig = pconfig;
        vconfig.memsys = v.memsys;
        vconfig.tlb_wired = v.tlb_wired;
        if (v.page_map_mult != 0) {
          vconfig.page_map = measured->PageMap(v.page_map_mult);
        }
        configs.push_back({v.name, [&measured, vconfig] {
                             return ExperimentSimulator(*measured, vconfig);
                           }});
      }
      const std::vector<ReplayEngine::Outcome> outcomes = engine.Run(configs);
      ASSERT_EQ(engine.parser_stats().refs, result.stats.CounterValue("parser.refs"));
      for (size_t i = 0; i < variants.size(); ++i) {
        SCOPED_TRACE(variants[i].name);
        auto* sim = static_cast<TraceDrivenSimulator*>(outcomes[i].sink.get());
        ExpectSamePrediction(result.replays[i].prediction, sim->Finish());
        EXPECT_EQ(result.replays[i].tlb, sim->tlb().stats());
      }
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wrl
