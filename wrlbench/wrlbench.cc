// wrlbench: the end-to-end and per-layer benchmark of the trace pipeline
// (build -> measured run -> traced run -> drain -> parse -> analyze).
//
//   wrlbench --workload table2-live|archive-replay|figure3-whatif
//            [--seed N] [--seconds S] [--trace 0|1] [--scale X] [--out DIR]
//
// One process per workload, closed loop: a single caller runs one
// experiment (or archive replay) after another, in passes over the
// workload's experiment set, until --seconds have elapsed (always at least
// one pass).  --trace 0 is the plain run: experiments go through the public
// harness (RunExperiment) with no spans, and the end-to-end metrics come
// from it.  --trace 1 is the span run: it alternates plain passes with
// passes that rebuild each experiment's live or capture path from the
// layers' public calls, with a span around each call, and reports the
// per-layer metrics.  The last stdout line is one JSON object with the keys
// correct, attempted, failed, and metrics; any failed operation makes the
// exit code nonzero.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/replay_engine.h"
#include "inputs.h"
#include "spans.h"
#include "support/error.h"
#include "support/json.h"
#include "support/strings.h"
#include "trace/trace_archive.h"

using namespace wrl;
using wrlbench::Ledger;
using wrlbench::SpanScope;
using wrlbench::TeardownSpan;
using wrlbench::TimedSink;
using wrlbench::TimedSource;

namespace {

double NowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- Host-speed scaling -------------------------------------------------------
//
// On a shared host the CPU's speed drifts by 15-30% over minutes, and no
// median within one run removes that: two sets of the same ten table2-live
// runs, minutes apart on a 4-core x86 VM, read median host wall_s 5.70 s and
// 7.10 s.  So a short fixed loop (random updates over a 4 MB table) is timed
// before every operation of a pass, after its last one, and around each
// set-up.  A segment's host seconds are scaled by the loop's reference time
// over its mean time across the segment.  The loop's table is allocated and
// touched before set-up, so the program's heap does not move it.  The host
// medians are printed too.
constexpr double kCalibrationRefS = 0.025;

double CalibrationSeconds() {
  static std::vector<uint32_t> table(1u << 20);
  static uint64_t x = 1;
  const double t0 = NowS();
  for (int round = 0; round < 8; ++round) {
    for (size_t i = 0; i < table.size(); ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      table[(x >> 40) & (table.size() - 1)] += static_cast<uint32_t>(x);
    }
  }
  return NowS() - t0;
}

class HostScale {
 public:
  void Sample() {
    sum_s_ += CalibrationSeconds();
    ++samples_;
  }
  // Reference over mean loop time since the last call (which took samples).
  double TakeFactor() {
    const double factor = kCalibrationRefS * samples_ / sum_s_;
    sum_s_ = 0;
    samples_ = 0;
    return factor;
  }

 private:
  double sum_s_ = 0;
  int samples_ = 0;
};

// ---- The workloads ----------------------------------------------------------

enum class Kind { kTable2Live, kArchiveReplay, kFigure3Whatif };

struct WorkloadDef {
  const char* name;
  Kind kind;
  // Scale at which one pass takes 1-8 s on a 4-core x86 host, so a 20 s
  // run measures several passes, and large enough that the seed moves the
  // simulated TLB-miss totals by only a few percent.  (At 0.05 eqntott's
  // working set no longer misses in the TLB, so archive-replay would lose
  // its TLB-hostile capture.)
  double scale;
};

constexpr WorkloadDef kWorkloads[] = {
    {"table2-live", Kind::kTable2Live, 0.1},
    {"archive-replay", Kind::kArchiveReplay, 0.2},
    {"figure3-whatif", Kind::kFigure3Whatif, 0.1},
};

// The archive-replay capture set: TLB-friendly large text (gcc) and the
// TLB-hostile working set (eqntott), under both personalities.
constexpr const char* kCaptureSet[] = {"gcc", "eqntott"};

// bench_figure3's what-if variants: two geometry-only cache variants the
// sweep pass absorbs, and two (slower memory, more wired TLB entries) that
// need dedicated replays.
std::vector<ReplayVariant> WhatIfVariants() {
  std::vector<ReplayVariant> variants(4);
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
  return variants;
}

// ---- Deterministic outputs of one operation ----------------------------------

struct Outcome {
  std::string name;  // "<workload>/<personality>"
  // Digested: every simulated quantity a speed-only change must keep.
  uint64_t measured_cycles = 0;
  uint64_t measured_utlb = 0;
  double predicted_cycles = 0;
  uint64_t predicted_utlb = 0;
  uint64_t trace_words = 0;
  uint64_t parser_refs = 0;
  uint64_t icache_misses = 0;
  uint64_t dcache_misses = 0;
  std::vector<double> variant_cycles;  // Replay variants, in option order.
  std::vector<uint64_t> tlb_curve;     // The sweep's LRU TLB miss curve.
  // Checked or reported, not digested.
  double text_growth = 1.0;
  uint64_t validation_errors = 0;
  uint64_t unattributed_refs = 0;
  std::vector<std::string> mismatches;  // Replay vs record-time counters.
};

uint64_t Fnv(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash = (hash ^ ((value >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
  }
  return hash;
}

uint64_t Fnv(uint64_t hash, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return Fnv(hash, bits);
}

uint64_t Digest(const std::vector<Outcome>& outcomes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const Outcome& o : outcomes) {
    for (char ch : o.name) {
      h = Fnv(h, static_cast<uint64_t>(static_cast<unsigned char>(ch)));
    }
    for (uint64_t v : {o.measured_cycles, o.measured_utlb, o.predicted_utlb, o.trace_words,
                       o.parser_refs, o.icache_misses, o.dcache_misses}) {
      h = Fnv(h, v);
    }
    h = Fnv(h, o.predicted_cycles);
    for (double v : o.variant_cycles) {
      h = Fnv(h, v);
    }
    for (uint64_t v : o.tlb_curve) {
      h = Fnv(h, v);
    }
  }
  return h;
}

// Failures of one operation's outputs (empty = correct).
std::vector<std::string> Check(const Outcome& o) {
  std::vector<std::string> failures = o.mismatches;
  if (o.validation_errors > 0) {
    failures.push_back(StrFormat("%llu parser validation error(s)",
                                 static_cast<unsigned long long>(o.validation_errors)));
  }
  if (o.measured_cycles == 0 || o.predicted_cycles <= 0) {
    failures.push_back("degenerate measured or predicted cycles");
  }
  if (o.unattributed_refs > 0) {
    failures.push_back(StrFormat("%llu profile-unattributed reference(s)",
                                 static_cast<unsigned long long>(o.unattributed_refs)));
  }
  return failures;
}

Outcome FromResult(const ExperimentResult& r) {
  Outcome o;
  o.name = r.workload + "/" + PersonalityName(r.personality);
  o.measured_cycles = r.measured_cycles;
  o.measured_utlb = r.measured_utlb;
  o.predicted_cycles = r.prediction.PredictedCycles();
  o.predicted_utlb = r.prediction.utlb_misses;
  o.trace_words = r.trace_words;
  o.parser_refs = r.stats.CounterValue("parser.refs");
  o.icache_misses = r.prediction.memsys_stats.icache_misses;
  o.dcache_misses = r.prediction.memsys_stats.dcache_misses;
  for (const ReplayVariantResult& v : r.replays) {
    o.variant_cycles.push_back(v.prediction.PredictedCycles());
  }
  if (r.sweep_ran) {
    o.tlb_curve = r.sweep.tlb_lru_misses;
  }
  o.text_growth = r.stats.GaugeValue("traced.epoxie.workload_text_growth");
  o.validation_errors = r.parser_errors;
  o.unattributed_refs = r.profile.totals.unattributed_insts + r.profile.totals.unattributed_data;
  return o;
}

// ---- Shared set-up of both systems (as the harness does it) -----------------

SystemConfig MakeConfig(const WorkloadSpec& workload, const ExperimentOptions& options,
                        bool tracing) {
  SystemConfig config;
  config.personality = options.personality;
  config.tracing = tracing;
  config.clock_period = tracing ? options.clock_period * static_cast<uint32_t>(options.dilation)
                                : options.clock_period;
  config.program_source = workload.source;
  config.program_name = workload.name;
  config.files = workload.files;
  config.trace_buf_bytes = options.trace_buf_bytes;
  config.scavenge = options.scavenge;
  if (options.personality == Personality::kMach) {
    config.policy = PagePolicy::kScrambled;
    config.policy_mult = 9;
  }
  return config;
}

PredictorConfig MakePredictorConfig(const SystemInstance& measured,
                                    const ExperimentOptions& options) {
  PredictorConfig pconfig;
  pconfig.dilation = options.dilation;
  // Mach's random policy: the simulator draws a different permutation.
  pconfig.page_map = options.personality == Personality::kMach ? measured.PageMap(13)
                                                               : measured.PageMap();
  return pconfig;
}

void SetTables(ReplaySource& source, const SystemInstance& traced, Personality personality) {
  source.kernel_table = &traced.kernel_table();
  source.user_tables.emplace_back(1, &traced.user_table());
  if (personality == Personality::kMach) {
    source.user_tables.emplace_back(2, &traced.server_table());
  }
}

using Counters = std::map<std::string, double>;

// Builds and runs the measured (untraced) system; fills the measured side.
std::unique_ptr<SystemInstance> RunMeasured(Ledger* ledger, const WorkloadSpec& workload,
                                            const ExperimentOptions& options, Outcome& out,
                                            uint32_t& exit_code, Counters& counters) {
  std::unique_ptr<SystemInstance> measured;
  {
    SpanScope span(ledger, "kernel.build_measured");
    measured = BuildSystem(MakeConfig(workload, options, false));
  }
  auto [idle_lo, idle_hi] = measured->IdleRange();
  measured->machine().SetIdleRange(idle_lo, idle_hi);
  RunResult run;
  {
    SpanScope span(ledger, "mach.measured");
    run = measured->Run(options.max_instructions);
  }
  if (!run.halted) {
    throw Error("measured run of '" + workload.name + "' did not halt");
  }
  out.measured_cycles = measured->ProcessCycles(1);
  out.measured_utlb = measured->UtlbMissCount();
  exit_code = measured->ProcessExitCode(1);
  counters["mach.measured_instructions"] += static_cast<double>(measured->machine().instructions());
  return measured;
}

// Runs the traced system with `consume` as its chunk consumer, behind a
// TracePipeline when the options enable one, exactly as the harness wires
// the transport.
void RunTraced(Ledger* ledger, SystemInstance& traced, const ExperimentOptions& options,
               std::function<void(const uint32_t*, size_t)> consume, Counters& counters) {
  std::unique_ptr<TracePipeline> pipeline;
  if (options.pipeline) {
    pipeline = std::make_unique<TracePipeline>(std::move(consume), options.pipeline_depth);
    traced.SetTraceSink([ledger, p = pipeline.get()](const uint32_t* words, size_t count) {
      SpanScope span(ledger, "trace.sink");
      span.set_work(count);
      p->Produce(words, count);
    });
  } else {
    traced.SetTraceSink([ledger, consume](const uint32_t* words, size_t count) {
      SpanScope span(ledger, "trace.sink");
      span.set_work(count);
      consume(words, count);
    });
  }
  RunResult run;
  {
    SpanScope span(ledger, "mach.traced");
    run = traced.Run(options.max_instructions);
  }
  if (pipeline != nullptr) {
    SpanScope span(ledger, "trace.pipeline_wait");
    pipeline->Finish();
  }
  traced.SetTraceSink(nullptr);
  if (!run.halted) {
    throw Error("traced run did not halt");
  }
  counters["mach.traced_instructions"] += static_cast<double>(traced.machine().instructions());
}

void FinishTraced(const SystemInstance& traced, uint32_t measured_exit, Outcome& out) {
  if (traced.ProcessExitCode(1) != measured_exit) {
    throw Error(StrFormat("traced exit code %u != measured %u", traced.ProcessExitCode(1),
                          measured_exit));
  }
  out.trace_words = traced.trace_words_drained();
  out.text_growth = traced.workload_text_growth();
}

void CountPrimary(const TraceDrivenSimulator& sim, const Prediction& p, Outcome& out,
                  Counters& counters) {
  out.predicted_cycles = p.PredictedCycles();
  out.predicted_utlb = p.utlb_misses;
  out.icache_misses = p.memsys_stats.icache_misses;
  out.dcache_misses = p.memsys_stats.dcache_misses;
  counters["sim.user_refs"] += static_cast<double>(sim.tlb().stats().user_refs);
  counters["sim.utlb_misses"] += static_cast<double>(p.utlb_misses);
  counters["sim.synth_refs"] += static_cast<double>(p.synthesized_refs);
  counters["memsys.icache_misses"] += static_cast<double>(p.memsys_stats.icache_misses);
  counters["memsys.dcache_misses"] += static_cast<double>(p.memsys_stats.dcache_misses);
  counters["memsys.wb_stall_cycles"] += static_cast<double>(p.memsys_stats.wb_stall_cycles);
}

void CountParse(const TraceParserStats& stats, Outcome& out, Counters& counters) {
  out.parser_refs = stats.refs;
  out.validation_errors = stats.validation_errors;
  counters["trace.refs"] += static_cast<double>(stats.refs);
  counters["trace.parsed_words"] += static_cast<double>(stats.words);
  counters["trace.validation_errors"] += static_cast<double>(stats.validation_errors);
}

// ---- Span run: the live path (table2-live) ------------------------------------

Outcome SpanLive(Ledger* ledger, const WorkloadSpec& workload, const ExperimentOptions& options,
                 Counters& counters) {
  TeardownSpan teardown(ledger);
  WRL_CHECK_MSG(!options.capture_replay && options.replay_variants.empty() &&
                    !options.sweep.Active() && !options.profile && options.archive_path.empty() &&
                    options.batch,
                "span live path covers the default live experiment only");
  Outcome out;
  out.name = workload.name + "/" + PersonalityName(options.personality);
  uint32_t exit_code = 0;
  std::unique_ptr<SystemInstance> measured =
      RunMeasured(ledger, workload, options, out, exit_code, counters);
  std::unique_ptr<TraceDrivenSimulator> simulator;
  {
    SpanScope span(ledger, "sim");
    simulator = std::make_unique<TraceDrivenSimulator>(MakePredictorConfig(*measured, options));
    simulator->AddTextImage(measured->kernel_exe());
    simulator->AddTextImage(measured->workload_orig());
  }
  std::unique_ptr<SystemInstance> traced;
  {
    SpanScope span(ledger, "kernel.build_traced");
    traced = BuildSystem(MakeConfig(workload, options, true));
  }
  TimedSink sim_sink(ledger, "sim", simulator.get());
  TraceParser parser(&traced->kernel_table());
  parser.SetUserTable(1, &traced->user_table());
  if (options.personality == Personality::kMach) {
    parser.SetUserTable(2, &traced->server_table());
  }
  parser.SetInitialContext(kKernelPid);
  parser.SetBatchSink(&sim_sink);
  RunTraced(
      ledger, *traced, options,
      [ledger, &parser](const uint32_t* words, size_t count) {
        SpanScope span(ledger, "trace.parse");
        span.set_work(count);
        parser.Feed(words, count);
      },
      counters);
  {
    SpanScope span(ledger, "trace.parse");
    parser.Finish();
  }
  Prediction prediction;
  {
    SpanScope span(ledger, "sim");
    prediction = simulator->Finish();
  }
  FinishTraced(*traced, exit_code, out);
  CountParse(parser.stats(), out, counters);
  CountPrimary(*simulator, prediction, out, counters);
  teardown.Open();
  return out;
}

// ---- Span run: the capture path (figure3-whatif) ------------------------------

// A variant the sweep engine prices exactly: only the power-of-two cache
// geometry differs from the primary configuration (the harness's rule).
bool GeometryOnly(const ReplayVariant& v, const PredictorConfig& primary) {
  auto pow2 = [](uint32_t x) { return x != 0 && (x & (x - 1)) == 0; };
  const MemSysConfig& base = primary.memsys;
  return v.tlb_wired == primary.tlb_wired && v.page_map_mult == 0 &&
         v.memsys.read_miss_penalty == base.read_miss_penalty &&
         v.memsys.uncached_penalty == base.uncached_penalty && v.memsys.wb_depth == base.wb_depth &&
         v.memsys.wb_cycles_per_entry == base.wb_cycles_per_entry &&
         pow2(v.memsys.icache.line_bytes) && pow2(v.memsys.icache.size_bytes) &&
         pow2(v.memsys.dcache.line_bytes) && pow2(v.memsys.dcache.size_bytes) &&
         v.memsys.icache.size_bytes >= v.memsys.icache.line_bytes &&
         v.memsys.dcache.size_bytes >= v.memsys.dcache.line_bytes;
}

void CoverFamilyPoint(std::vector<CacheFamilySpec>& families, uint32_t line, uint32_t size) {
  for (CacheFamilySpec& family : families) {
    if (family.line_bytes == line) {
      family.min_size_bytes = std::min(family.min_size_bytes, size);
      family.max_size_bytes = std::max(family.max_size_bytes, size);
      return;
    }
  }
  families.push_back({line, size, size});
}

ArchiveMeta HarnessMeta(const WorkloadSpec& workload, const ExperimentOptions& options) {
  ArchiveMeta meta;
  meta.emplace_back("workload", workload.name);
  meta.emplace_back("personality", PersonalityName(options.personality));
  meta.emplace_back("clock_period", std::to_string(options.clock_period));
  meta.emplace_back("dilation", StrFormat("%.17g", options.dilation));
  meta.emplace_back("trace_buf_bytes", std::to_string(options.trace_buf_bytes));
  meta.emplace_back("scavenge", options.scavenge ? "1" : "0");
  meta.emplace_back("max_instructions", std::to_string(options.max_instructions));
  meta.insert(meta.end(), options.archive_meta.begin(), options.archive_meta.end());
  return meta;
}

Outcome SpanCapture(Ledger* ledger, const WorkloadSpec& workload,
                    const ExperimentOptions& options, Counters& counters) {
  TeardownSpan teardown(ledger);
  WRL_CHECK_MSG(options.sweep.Active() && options.profile && !options.archive_path.empty() &&
                    options.batch,
                "span capture path covers the figure3-whatif experiment only");
  Outcome out;
  out.name = workload.name + "/" + PersonalityName(options.personality);
  uint32_t exit_code = 0;
  std::unique_ptr<SystemInstance> measured =
      RunMeasured(ledger, workload, options, out, exit_code, counters);
  const PredictorConfig pconfig = MakePredictorConfig(*measured, options);
  std::unique_ptr<TraceDrivenSimulator> simulator;
  {
    SpanScope span(ledger, "sim");
    simulator = std::make_unique<TraceDrivenSimulator>(pconfig);
    simulator->AddTextImage(measured->kernel_exe());
    simulator->AddTextImage(measured->workload_orig());
  }
  // Geometry-only variants ride the sweep pass; the rest replay.
  std::vector<bool> swept(options.replay_variants.size(), false);
  std::vector<ReplayVariant> replayed;
  std::unique_ptr<SweepEngine> sweep;
  {
    SpanScope span(ledger, "sweep");
    SweepConfig config;
    config.base = pconfig.memsys;
    config.page_map = pconfig.page_map;
    config.tlb_wired = pconfig.tlb_wired;
    config.icache = options.sweep.icache;
    config.dcache = options.sweep.dcache;
    config.tlb_max_entries = options.sweep.tlb_max_entries;
    for (size_t i = 0; i < options.replay_variants.size(); ++i) {
      const ReplayVariant& v = options.replay_variants[i];
      if (GeometryOnly(v, pconfig)) {
        swept[i] = true;
        CoverFamilyPoint(config.icache, v.memsys.icache.line_bytes, v.memsys.icache.size_bytes);
        CoverFamilyPoint(config.dcache, v.memsys.dcache.line_bytes, v.memsys.dcache.size_bytes);
      } else {
        replayed.push_back(v);
      }
    }
    sweep = std::make_unique<SweepEngine>(config);
  }
  WRL_CHECK_MSG(!replayed.empty(), "figure3-whatif must capture (a variant must replay)");
  std::unique_ptr<SystemInstance> traced;
  {
    SpanScope span(ledger, "kernel.build_traced");
    traced = BuildSystem(MakeConfig(workload, options, true));
  }
  std::unique_ptr<TraceProfiler> profiler;
  {
    SpanScope span(ledger, "prof");
    profiler = std::make_unique<TraceProfiler>(options.profile_options);
    profiler->AddTable(kKernelPid, &traced->kernel_table());
    profiler->AddTable(1, &traced->user_table());
    profiler->AddSymbols(kKernelPid, traced->kernel_orig());
    profiler->AddSymbols(1, measured->workload_orig());
    profiler->SetSpaceName(1, workload.name);
    if (options.personality == Personality::kMach) {
      profiler->AddTable(2, &traced->server_table());
      profiler->AddSymbols(2, traced->server_orig());
      profiler->SetSpaceName(2, "server");
    }
  }
  TraceLog trace_log;
  std::unique_ptr<ArchiveWriter> archive;
  {
    SpanScope span(ledger, "trace.archive_append");
    archive = std::make_unique<ArchiveWriter>(options.archive_path, HarnessMeta(workload, options));
  }
  RunTraced(
      ledger, *traced, options,
      [ledger, &trace_log, w = archive.get()](const uint32_t* words, size_t count) {
        {
          SpanScope span(ledger, "trace.archive_append");
          span.set_work(count);
          w->Append(words, count);
        }
        SpanScope span(ledger, "trace.log_append");
        span.set_work(count);
        trace_log.Append(words, count);
      },
      counters);
  {
    SpanScope span(ledger, "trace.archive_finalize");
    archive->Finalize();
  }
  counters["trace.log_bytes"] += static_cast<double>(trace_log.stored_bytes());
  counters["trace.archive_bytes"] += static_cast<double>(archive->bytes_written());

  // One parse of the capture fans out to the primary simulator, the
  // profiler, the sweep, and every replayed variant.
  TimedSource timed(ledger, &trace_log);
  ReplaySource source;
  source.log = &timed;
  SetTables(source, *traced, options.personality);
  ReplayEngine engine(std::move(source));
  std::vector<ReplayEngine::Config> configs;
  configs.push_back({"primary", [ledger, s = simulator.get()] {
                       return std::make_unique<TimedSink>(ledger, "sim", s);
                     }});
  configs.push_back({"profile", [ledger, p = profiler.get()] {
                       return std::make_unique<TimedSink>(ledger, "prof", p);
                     }});
  configs.push_back({"sweep", [ledger, s = sweep.get()] {
                       return std::make_unique<TimedSink>(ledger, "sweep", s);
                     }});
  for (const ReplayVariant& variant : replayed) {
    PredictorConfig vconfig = pconfig;
    vconfig.memsys = variant.memsys;
    vconfig.tlb_wired = variant.tlb_wired;
    if (variant.page_map_mult != 0) {
      vconfig.page_map = measured->PageMap(variant.page_map_mult);
    }
    configs.push_back({variant.name, [ledger, vconfig, &measured] {
                         auto sim = std::make_unique<TraceDrivenSimulator>(vconfig);
                         sim->AddTextImage(measured->kernel_exe());
                         sim->AddTextImage(measured->workload_orig());
                         return std::make_unique<TimedSink>(ledger, "sim", std::move(sim));
                       }});
  }
  ReplayEngine::Options ropts;
  ropts.decode_workers = options.pipeline ? PipelineDecodeWorkers() : 1;
  {
    SpanScope span(ledger, "harness.replay_parse");
    engine.Parse(ropts.decode_workers);
  }
  std::vector<ReplayEngine::Outcome> outcomes;
  {
    SpanScope span(ledger, "harness.fanout");
    outcomes = engine.Run(configs, ropts);
  }
  counters["harness.materialized_bytes"] +=
      static_cast<double>(engine.refs().size() * sizeof(TraceRef));
  counters["harness.configs"] += static_cast<double>(configs.size());

  std::vector<double> replayed_cycles;
  Prediction prediction;
  {
    SpanScope span(ledger, "sim");
    for (size_t i = 3; i < outcomes.size(); ++i) {
      auto* sink = static_cast<TimedSink*>(outcomes[i].sink.get());
      replayed_cycles.push_back(
          static_cast<TraceDrivenSimulator*>(sink->target())->Finish().PredictedCycles());
    }
    prediction = simulator->Finish();
  }
  Profile profile;
  {
    SpanScope span(ledger, "prof");
    profile = profiler->Finish();
  }
  {
    SpanScope span(ledger, "sweep");
    const SweepResult& result = sweep->Finish();
    out.tlb_curve = result.tlb_lru_misses;
    counters["sweep.family_points"] += static_cast<double>(result.family_points);
    counters["sweep.point_refs"] +=
        static_cast<double>(result.family_points) * static_cast<double>(result.refs);
    size_t next_replayed = 0;
    for (size_t i = 0; i < options.replay_variants.size(); ++i) {
      out.variant_cycles.push_back(
          swept[i] ? sweep->DerivePrediction(prediction, options.replay_variants[i].memsys)
                         .PredictedCycles()
                   : replayed_cycles[next_replayed++]);
    }
  }
  FinishTraced(*traced, exit_code, out);
  CountParse(engine.parser_stats(), out, counters);
  CountPrimary(*simulator, prediction, out, counters);
  out.unattributed_refs = profile.totals.unattributed_insts + profile.totals.unattributed_data;
  counters["prof.unattributed_refs"] += static_cast<double>(out.unattributed_refs);
  teardown.Open();
  return out;
}

// ---- archive-replay -----------------------------------------------------------

struct Capture {
  std::string name;  // "<workload>/<personality>"
  std::string path;
  Personality personality = Personality::kUltrix;
  std::unique_ptr<SystemInstance> measured;
  std::unique_ptr<SystemInstance> traced;
  PredictorConfig pconfig;
  // Record-time live analysis counters (parser.* and predicted.*), the
  // `wrltrace replay --expect` comparand.
  std::map<std::string, double> expected;
  double expected_cycles = 0;
  uint64_t measured_cycles = 0;
  uint64_t measured_utlb = 0;
};

std::map<std::string, double> AnalysisCounters(const StatsSnapshot& stats) {
  std::map<std::string, double> counters;
  for (const auto& [name, value] : stats.values()) {
    const bool analysis = name.rfind("parser.", 0) == 0 || name.rfind("predicted.", 0) == 0;
    if (analysis && value.kind != StatValue::Kind::kHistogram) {
      counters[name] = value.AsDouble();
    }
  }
  return counters;
}

// Records one capture through the harness's archive tee, then rebuilds the
// capturing system from the archive's identity metadata, as `wrltrace
// replay` does (with this run's seeded workload inputs).
Capture Record(const WorkloadSpec& workload, Personality personality,
               const ExperimentOptions& base, const std::string& path, double scale,
               uint64_t seed) {
  Capture c;
  c.name = workload.name + "/" + PersonalityName(personality);
  c.path = path;
  ExperimentOptions options = base;
  options.personality = personality;
  options.archive_path = path;
  options.archive_meta.emplace_back("scale", StrFormat("%.17g", scale));
  options.archive_meta.emplace_back("seed", std::to_string(seed));
  ExperimentResult result = RunExperiment(workload, options);
  if (result.parser_errors > 0) {
    throw Error("capture of " + c.name + " had parser validation errors");
  }
  c.expected = AnalysisCounters(result.stats);
  c.expected_cycles = result.prediction.PredictedCycles();
  c.measured_cycles = result.measured_cycles;
  c.measured_utlb = result.measured_utlb;

  ArchiveReader archive(path);
  if (archive.MetaValue("workload") != workload.name ||
      archive.MetaValue("seed") != std::to_string(seed)) {
    throw Error("archive " + path + " does not identify " + c.name);
  }
  ExperimentOptions rebuilt;
  rebuilt.personality = PersonalityFromName(archive.MetaValue("personality"));
  rebuilt.clock_period = static_cast<uint32_t>(
      std::strtoul(archive.MetaValue("clock_period").c_str(), nullptr, 10));
  rebuilt.dilation = std::strtod(archive.MetaValue("dilation").c_str(), nullptr);
  rebuilt.trace_buf_bytes = static_cast<uint32_t>(
      std::strtoul(archive.MetaValue("trace_buf_bytes").c_str(), nullptr, 10));
  rebuilt.scavenge = archive.MetaValue("scavenge") != "0";
  c.personality = rebuilt.personality;
  c.measured = BuildSystem(MakeConfig(workload, rebuilt, false));
  c.traced = BuildSystem(MakeConfig(workload, rebuilt, true));
  c.pconfig = MakePredictorConfig(*c.measured, rebuilt);
  return c;
}

// Opens one archive and replays it into the primary simulator; the same
// code serves the plain run (null ledger) and the span run.  With `expect`
// it also applies the `wrltrace replay --expect` rule: every parser.* and
// predicted.* counter and the predicted cycles equal the record-time live
// values.  That comparison is the benchmark's work, so timed passes skip it.
Outcome ReplayCapture(Ledger* ledger, const Capture& c, bool expect, Counters& counters) {
  TeardownSpan teardown(ledger);
  Outcome out;
  out.name = c.name;
  out.measured_cycles = c.measured_cycles;
  out.measured_utlb = c.measured_utlb;
  std::unique_ptr<ArchiveReader> archive;
  {
    SpanScope span(ledger, "trace.archive_open");
    archive = std::make_unique<ArchiveReader>(c.path);
  }
  if (archive->degraded()) {
    throw Error("archive " + c.path + " is degraded");
  }
  TimedSource timed(ledger, archive.get());
  ReplaySource source;
  source.log = ledger != nullptr ? static_cast<const TraceChunkSource*>(&timed) : archive.get();
  SetTables(source, *c.traced, c.personality);
  ReplayEngine engine(std::move(source));
  std::unique_ptr<TraceDrivenSimulator> simulator;
  {
    SpanScope span(ledger, "sim");
    simulator = std::make_unique<TraceDrivenSimulator>(c.pconfig);
    simulator->AddTextImage(c.measured->kernel_exe());
    simulator->AddTextImage(c.measured->workload_orig());
  }
  {
    SpanScope span(ledger, "harness.replay_parse");
    engine.Parse();
  }
  {
    SpanScope span(ledger, "harness.fanout");
    engine.Run({{"primary", [ledger, s = simulator.get()] {
                   return std::make_unique<TimedSink>(ledger, "sim", s);
                 }}});
  }
  Prediction prediction;
  {
    SpanScope span(ledger, "sim");
    prediction = simulator->Finish();
  }
  if (expect) {
    StatsRegistry registry;
    engine.RegisterParserStats(registry, "parser.");
    simulator->RegisterStats(registry, "predicted.");
    std::map<std::string, double> replayed = AnalysisCounters(registry.Snapshot());
    for (const auto& [name, value] : c.expected) {
      auto it = replayed.find(name);
      if (it == replayed.end() || it->second != value) {
        out.mismatches.push_back(name + " differs from the record-time value");
      }
    }
    for (const auto& [name, value] : replayed) {
      if (c.expected.count(name) == 0) {
        out.mismatches.push_back(name + " absent at record time");
      }
    }
    if (prediction.PredictedCycles() != c.expected_cycles) {
      out.mismatches.push_back("predicted cycles differ from the record-time value");
    }
  }
  out.trace_words = archive->word_count();
  out.text_growth = c.traced->workload_text_growth();
  counters["trace.archive_bytes"] += static_cast<double>(archive->file_bytes());
  counters["harness.materialized_bytes"] +=
      static_cast<double>(engine.refs().size() * sizeof(TraceRef));
  counters["harness.configs"] += 1;
  CountParse(engine.parser_stats(), out, counters);
  CountPrimary(*simulator, prediction, out, counters);
  teardown.Open();
  return out;
}

// ---- Set-up, passes, metrics ----------------------------------------------------

struct Bench {
  WorkloadDef def;
  double scale = 0;
  uint64_t seed = 0;
  std::string out_dir;
  std::vector<WorkloadSpec> specs;
  // table2-live / figure3-whatif: one experiment per (spec, personality).
  std::vector<std::pair<const WorkloadSpec*, ExperimentOptions>> experiments;
  std::vector<Capture> captures;  // archive-replay.

  size_t ops() const {
    return def.kind == Kind::kArchiveReplay ? captures.size() : experiments.size();
  }
};

Outcome RunOp(Bench& b, size_t i, Ledger* ledger, bool expect, Counters& counters) {
  if (b.def.kind == Kind::kArchiveReplay) {
    return ReplayCapture(ledger, b.captures[i], expect, counters);
  }
  const auto& [spec, options] = b.experiments[i];
  if (ledger == nullptr) {
    return FromResult(RunExperiment(*spec, options));
  }
  return b.def.kind == Kind::kTable2Live ? SpanLive(ledger, *spec, options, counters)
                                         : SpanCapture(ledger, *spec, options, counters);
}

// Generates the seeded inputs, records the captures (archive-replay), and
// warms up with the workload's first operation.
void Setup(Bench& b) {
  b.experiments.clear();
  b.captures.clear();
  b.specs = wrlbench::SeededWorkloads(b.scale, b.seed);
  ExperimentOptions base;
  switch (b.def.kind) {
    case Kind::kTable2Live:
      for (Personality personality : {Personality::kUltrix, Personality::kMach}) {
        for (const WorkloadSpec& spec : b.specs) {
          base.personality = personality;
          b.experiments.emplace_back(&spec, base);
        }
      }
      break;
    case Kind::kFigure3Whatif:
      base.replay_variants = WhatIfVariants();
      base.sweep.enabled = true;
      base.sweep.tlb_max_entries = 64;
      base.profile = true;
      base.archive_path = b.out_dir + "/figure3-whatif.wrlt";
      for (const WorkloadSpec& spec : b.specs) {
        b.experiments.emplace_back(&spec, base);
      }
      break;
    case Kind::kArchiveReplay:
      for (const char* name : kCaptureSet) {
        const WorkloadSpec* spec = nullptr;
        for (const WorkloadSpec& s : b.specs) {
          spec = s.name == name ? &s : spec;
        }
        WRL_CHECK_MSG(spec != nullptr, "capture workload missing");
        for (Personality personality : {Personality::kUltrix, Personality::kMach}) {
          b.captures.push_back(Record(*spec, personality, base,
                                      b.out_dir + "/" + spec->name + "-" +
                                          PersonalityName(personality) + ".wrlt",
                                      b.scale, b.seed));
        }
      }
      break;
  }
  Counters discarded;
  std::vector<std::string> failures = Check(RunOp(b, 0, nullptr, true, discarded));
  if (!failures.empty()) {
    throw Error("warm-up failed: " + failures.front());
  }
}

struct Pass {
  double wall_s = 0;
  double scaled_s = 0;  // wall_s at the reference host speed.
  uint64_t refs = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Outcome> outcomes;
  Counters counters;
  std::vector<wrlbench::Span> spans;
};

Pass RunPass(Bench& b, Ledger* ledger, bool expect, HostScale& host) {
  Pass pass;
  if (ledger != nullptr) {
    ledger->Clear();
  }
  for (size_t i = 0; i < b.ops(); ++i) {
    ++pass.attempted;
    host.Sample();
    const double t0 = NowS();
    if (ledger != nullptr) {
      ledger->BeginExperiment(static_cast<int>(i));
    }
    try {
      Outcome out = RunOp(b, i, ledger, expect, pass.counters);
      std::vector<std::string> failures = Check(out);
      for (const std::string& failure : failures) {
        std::fprintf(stderr, "wrlbench: FAILED %s: %s\n", out.name.c_str(), failure.c_str());
      }
      pass.failed += failures.empty() ? 0 : 1;
      pass.refs += out.parser_refs;
      pass.outcomes.push_back(std::move(out));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "wrlbench: FAILED operation %zu: %s\n", i, e.what());
      ++pass.failed;
    }
    if (ledger != nullptr) {
      ledger->EndExperiment();
    }
    pass.wall_s += NowS() - t0;
  }
  host.Sample();
  pass.scaled_s = pass.wall_s * host.TakeFactor();
  if (ledger != nullptr) {
    pass.spans = ledger->spans();
  }
  return pass;
}

using Metrics = std::map<std::string, double>;

// Per-layer metrics of one span pass; `plain_wall_s` is the plain pass run
// just before it (for the span overhead).
Metrics LayerMetrics(const Pass& pass, double plain_wall_s) {
  const std::map<std::string, wrlbench::SpanTotals> totals = wrlbench::TotalsByName(pass.spans);
  auto get = [&totals](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? wrlbench::SpanTotals() : it->second;
  };
  auto total_ms = [&](const char* name) { return static_cast<double>(get(name).total_ns) / 1e6; };
  auto self_ms = [&](const char* name) { return static_cast<double>(get(name).self_ns) / 1e6; };
  auto counter = [&pass](const char* name) {
    auto it = pass.counters.find(name);
    return it == pass.counters.end() ? 0.0 : it->second;
  };
  Metrics m;
  m["kernel.build_measured_ms"] = total_ms("kernel.build_measured");
  m["kernel.build_traced_ms"] = total_ms("kernel.build_traced");
  m["kernel.builds"] =
      static_cast<double>(get("kernel.build_measured").count + get("kernel.build_traced").count);
  m["mach.measured_ms"] = total_ms("mach.measured");
  m["mach.measured_mips"] =
      Ratio(counter("mach.measured_instructions"), m["mach.measured_ms"] * 1e3);
  m["mach.traced_self_ms"] = self_ms("mach.traced");
  m["mach.traced_mips"] =
      Ratio(counter("mach.traced_instructions"), m["mach.traced_self_ms"] * 1e3);
  m["mach.instructions"] =
      counter("mach.measured_instructions") + counter("mach.traced_instructions");
  m["trace.drains"] = static_cast<double>(get("trace.sink").count);
  m["trace.words"] = static_cast<double>(get("trace.sink").work);
  m["trace.sink_ms"] = total_ms("trace.sink");
  m["trace.pipeline_wait_ms"] = total_ms("trace.pipeline_wait");
  m["trace.parse_self_ms"] = self_ms("trace.parse");
  m["trace.parse_mwords_per_s"] =
      Ratio(counter("trace.parsed_words"), m["trace.parse_self_ms"] * 1e3);
  m["trace.refs"] = counter("trace.refs");
  m["trace.validation_errors"] = counter("trace.validation_errors");
  m["trace.log_append_ms"] = total_ms("trace.log_append");
  m["trace.log_bytes"] = counter("trace.log_bytes");
  m["trace.archive_append_ms"] = total_ms("trace.archive_append");
  m["trace.archive_finalize_ms"] = total_ms("trace.archive_finalize");
  m["trace.archive_bytes"] = counter("trace.archive_bytes");
  m["trace.archive_open_ms"] = total_ms("trace.archive_open");
  m["trace.decode_ms"] = self_ms("trace.decode");
  m["harness.replay_parse_ms"] = self_ms("harness.replay_parse");
  m["harness.materialized_mb"] = counter("harness.materialized_bytes") / 1e6;
  m["harness.fanout_ms"] = self_ms("harness.fanout");
  m["harness.configs"] = counter("harness.configs");
  m["sim.ms"] = self_ms("sim");
  m["sim.mrefs_per_s"] = Ratio(static_cast<double>(get("sim").work), m["sim.ms"] * 1e3);
  for (const char* name : {"sim.user_refs", "sim.utlb_misses", "sim.synth_refs",
                           "memsys.icache_misses", "memsys.dcache_misses",
                           "memsys.wb_stall_cycles", "sweep.family_points",
                           "prof.unattributed_refs"}) {
    m[name] = counter(name);
  }
  m["sweep.ms"] = self_ms("sweep");
  m["sweep.point_mrefs_per_s"] = Ratio(counter("sweep.point_refs"), m["sweep.ms"] * 1e3);
  m["prof.ms"] = self_ms("prof");
  // The worst experiment's share of wall time no named layer accounts for.
  const std::vector<int64_t> self = wrlbench::SelfTimes(pass.spans);
  double worst = 0;
  for (size_t i = 0; i < pass.spans.size(); ++i) {
    const wrlbench::Span& span = pass.spans[i];
    if (std::strcmp(span.name, "experiment") == 0 && span.end_ns > span.start_ns) {
      worst = std::max(worst, 100.0 * static_cast<double>(self[i]) /
                                  static_cast<double>(span.end_ns - span.start_ns));
    }
  }
  m["span.unattributed_pct"] = worst;
  m["span.overhead_pct"] = 100.0 * (pass.wall_s / plain_wall_s - 1.0);
  return m;
}

// End-to-end quantities derived from one pass's outcomes.
Metrics AccuracyMetrics(const std::vector<Outcome>& outcomes) {
  double err_sum = 0;
  double growth_sum = 0;
  double utlb_abs = 0;
  double utlb_measured = 0;
  for (const Outcome& o : outcomes) {
    err_sum += std::fabs(o.predicted_cycles - static_cast<double>(o.measured_cycles)) /
               static_cast<double>(o.measured_cycles);
    growth_sum += o.text_growth;
    utlb_abs += std::fabs(static_cast<double>(o.predicted_utlb) -
                          static_cast<double>(o.measured_utlb));
    utlb_measured += static_cast<double>(o.measured_utlb);
  }
  const double n = static_cast<double>(outcomes.size());
  return {{"time_err_pct", 100.0 * Ratio(err_sum, n)},
          {"utlb_err_pct", 100.0 * Ratio(utlb_abs, utlb_measured)},
          {"text_growth", Ratio(growth_sum, n)}};
}

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},          {"setup_s", "s"},       {"mrefs_per_s", "Mrefs/s"},
    {"peak_rss_mb", "MB"},    {"time_err_pct", "%"},  {"utlb_err_pct", "%"},
    {"text_growth", "x"},
};

const char* LayerUnit(const std::string& name) {
  auto ends = [&name](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_ms") || name == "sim.ms" || name == "sweep.ms" || name == "prof.ms") {
    return "ms";
  }
  if (ends("_pct")) {
    return "%";
  }
  if (ends("_mips")) {
    return "MIPS";
  }
  if (ends("mwords_per_s")) {
    return "Mwords/s";
  }
  if (ends("mrefs_per_s")) {
    return "Mrefs/s";
  }
  if (ends("_bytes")) {
    return "bytes";
  }
  if (ends("_mb")) {
    return "MB";
  }
  if (ends("_cycles")) {
    return "cycles";
  }
  return "count";
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out || !(out << content)) {
    throw Error("wrlbench: cannot write " + path);
  }
}

void Usage() {
  std::fprintf(stderr,
               "usage: wrlbench --workload table2-live|archive-replay|figure3-whatif\n"
               "                [--seed N] [--seconds S] [--trace 0|1] [--scale X]\n"
               "                [--out DIR]\n");
}

// Set-ups of a plain run; the median is reported.
constexpr int kSetups = 3;

int Main(int argc, char** argv) {
  const WorkloadDef* def = nullptr;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  double scale = 0;
  std::string out_dir = ".bench_build/wrlbench-out";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      for (const WorkloadDef& w : kWorkloads) {
        def = std::strcmp(w.name, value) == 0 ? &w : def;
      }
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(value);
    } else if (arg == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--scale") {
      scale = std::atof(value);
    } else if (arg == "--out") {
      out_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (def == nullptr) {
    Usage();
    return 2;
  }
  std::filesystem::create_directories(out_dir);
  Bench b;
  b.def = *def;
  b.scale = scale > 0 ? scale : def->scale;
  b.seed = seed;
  b.out_dir = out_dir;

  // Set-up is repeated and its median reported, so work moved into set-up
  // shows.  The span run reports no set-up time and sets up once.
  HostScale host;
  std::vector<double> setup_host_s;
  std::vector<double> setup_s;
  for (int i = 0; i < (trace ? 1 : kSetups); ++i) {
    host.Sample();
    const double t0 = NowS();
    Setup(b);
    setup_host_s.push_back(NowS() - t0);
    host.Sample();
    setup_s.push_back(setup_host_s.back() * host.TakeFactor());
  }

  // The closed loop: passes until the measuring time is spent.  The span run
  // alternates a plain pass with a span pass.
  Ledger ledger;
  std::vector<Pass> plain;
  std::vector<Metrics> layers;
  std::vector<wrlbench::Span> last_spans;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  const double start = NowS();
  do {
    plain.push_back(RunPass(b, nullptr, false, host));
    if (trace) {
      Pass spanned = RunPass(b, &ledger, false, host);
      layers.push_back(LayerMetrics(spanned, plain.back().wall_s));
      attempted += spanned.attempted;
      failed += spanned.failed;
      const bool same = Digest(spanned.outcomes) == Digest(plain.front().outcomes);
      failed += same ? 0 : 1;
      if (!same) {
        std::fprintf(stderr, "wrlbench: FAILED span pass digest differs from the plain run\n");
      }
      last_spans = std::move(spanned.spans);
    }
    attempted += plain.back().attempted;
    failed += plain.back().failed;
  } while (NowS() - start < seconds);

  // archive-replay's record-time comparison runs in one untimed pass after
  // the timed ones; equal digests tie the timed passes to it.
  std::vector<const Pass*> compared;
  for (const Pass& pass : plain) {
    compared.push_back(&pass);
  }
  Pass checked;
  if (def->kind == Kind::kArchiveReplay) {
    checked = RunPass(b, nullptr, true, host);
    attempted += checked.attempted;
    failed += checked.failed;
    compared.push_back(&checked);
  }
  const uint64_t digest = Digest(plain.front().outcomes);
  for (const Pass* pass : compared) {
    if (Digest(pass->outcomes) != digest) {
      std::fprintf(stderr, "wrlbench: FAILED plain pass digest differs between passes\n");
      ++failed;
    }
  }

  std::printf("wrlbench %s: scale %g, seed %llu, %zu operation(s) per pass, %zu plain pass(es)%s\n",
              def->name, b.scale, static_cast<unsigned long long>(seed), b.ops(), plain.size(),
              trace ? StrFormat(", %zu span pass(es)", layers.size()).c_str() : "");
  std::printf("digest %016llx\n", static_cast<unsigned long long>(digest));
  std::printf("error_rate %.6f (%llu failed / %llu attempted)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));

  std::printf("%-18s %12s %12s %8s %8s %8s\n", "experiment", "measured", "predicted", "err%",
              "utlb_m", "utlb_p");
  for (const Outcome& o : plain.front().outcomes) {
    std::printf("%-18s %12llu %12.0f %+8.2f %8llu %8llu\n", o.name.c_str(),
                static_cast<unsigned long long>(o.measured_cycles), o.predicted_cycles,
                100.0 * (o.predicted_cycles / static_cast<double>(o.measured_cycles) - 1.0),
                static_cast<unsigned long long>(o.measured_utlb),
                static_cast<unsigned long long>(o.predicted_utlb));
  }

  Metrics metrics;
  std::vector<std::pair<std::string, std::string>> reported;  // (name, unit)
  if (!trace) {
    std::vector<double> walls;
    std::vector<double> host_walls;
    std::vector<double> rates;
    std::vector<double> host_rates;
    std::string passes;
    for (const Pass& pass : plain) {
      walls.push_back(pass.scaled_s);
      host_walls.push_back(pass.wall_s);
      rates.push_back(Ratio(static_cast<double>(pass.refs), pass.scaled_s) / 1e6);
      host_rates.push_back(Ratio(static_cast<double>(pass.refs), pass.wall_s) / 1e6);
      passes += StrFormat(" %.3f/%.3f", pass.scaled_s, pass.wall_s);
    }
    metrics = AccuracyMetrics(plain.front().outcomes);
    metrics["wall_s"] = Median(walls);
    metrics["setup_s"] = Median(setup_s);
    metrics["mrefs_per_s"] = Median(rates);
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    metrics["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
    for (const MetricDef& m : kEndToEnd) {
      reported.emplace_back(m.name, m.unit);
    }
    std::printf("pass wall_s scaled/host:%s\n", passes.c_str());
    std::printf("host medians: wall_s %.6f, setup_s %.6f, mrefs_per_s %.6f\n",
                Median(host_walls), Median(setup_host_s), Median(host_rates));
  } else {
    for (const auto& [name, value] : layers.front()) {
      (void)value;
      std::vector<double> values;
      for (const Metrics& pass : layers) {
        values.push_back(pass.at(name));
      }
      metrics[name] = Median(values);
      reported.emplace_back(name, LayerUnit(name));
    }
    const std::string table = wrlbench::SelfTimeTable(last_spans);
    std::printf("self time by span (last span pass):\n%s", table.c_str());
    WriteFile(out_dir + "/" + def->name + ".layers.txt", table);
    WriteFile(out_dir + "/" + def->name + ".spans.json", wrlbench::ChromeTraceJson(last_spans));
  }
  for (const auto& [name, unit] : reported) {
    std::printf("  %-28s %14.6g %s\n", name.c_str(), metrics[name], unit.c_str());
  }

  JsonWriter json(0);
  json.BeginObject();
  json.KV("correct", failed == 0);
  json.KV("attempted", attempted);
  json.KV("failed", failed);
  json.Key("metrics");
  json.BeginObject();
  for (const auto& [name, unit] : reported) {
    json.Key(name);
    json.BeginObject();
    json.KV("value", metrics[name]);
    json.KV("unit", unit);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  std::printf("%s\n", json.TakeString().c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wrlbench: error: %s\n", e.what());
    return 1;
  }
}
