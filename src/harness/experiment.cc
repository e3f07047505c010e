#include "harness/experiment.h"

#include <algorithm>
#include <charconv>
#include <exception>
#include <limits>
#include <optional>
#include <thread>
#include <type_traits>

#include "support/error.h"
#include "support/parallel.h"
#include "support/strings.h"
#include "trace/parser.h"

namespace wrl {
namespace {

// A dilation the traced clock's uint32_t truncation defines.
bool ParseDilation(const std::string& text, double& dilation) {
  return ParseBoundedReal(text, 4294967295.0, dilation);
}

// The archive identity an experiment records: the harness's keys, which
// ArchivedExperimentOptions reads back, then the caller's extras.  The
// reader returns a key's first value, so the harness's keys win.
ArchiveMeta ExperimentArchiveMeta(const WorkloadSpec& workload, const ExperimentOptions& options) {
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

}  // namespace

const char* PersonalityName(Personality personality) {
  return personality == Personality::kUltrix ? "ultrix" : "mach";
}

Personality PersonalityFromName(const std::string& name) {
  if (name == "ultrix") {
    return Personality::kUltrix;
  }
  if (name == "mach") {
    return Personality::kMach;
  }
  throw Error("unknown personality '" + name + "' (expected 'ultrix' or 'mach')");
}

SystemConfig ExperimentSystemConfig(const WorkloadSpec& workload, const ExperimentOptions& options,
                                    bool tracing) {
  SystemConfig config;
  config.personality = options.personality;
  config.tracing = tracing;
  config.clock_period = tracing
                            ? options.clock_period * static_cast<uint32_t>(options.dilation)
                            : options.clock_period;
  config.program_source = workload.source;
  config.program_name = workload.name;
  config.files = workload.files;
  config.trace_buf_bytes = options.trace_buf_bytes;
  config.scavenge = options.scavenge;
  config.events = options.events;
  if (options.personality == Personality::kMach) {
    config.policy = PagePolicy::kScrambled;
  }
  return config;
}

PredictorConfig ExperimentPredictorConfig(const SystemInstance& measured,
                                          const ExperimentOptions& options) {
  PredictorConfig config;
  config.dilation = options.dilation;
  // Mach: a different permutation draw than the measured run's.
  config.page_map = options.personality == Personality::kMach ? measured.PageMap(13)
                                                              : measured.PageMap();
  return config;
}

std::unique_ptr<TraceDrivenSimulator> ExperimentSimulator(const SystemInstance& measured,
                                                          const PredictorConfig& config) {
  auto simulator = std::make_unique<TraceDrivenSimulator>(config);
  simulator->AddTextImage(measured.kernel_exe());
  simulator->AddTextImage(measured.workload_orig());
  return simulator;
}

std::unique_ptr<TraceParser> SystemTraceParser(const SystemInstance& traced) {
  auto parser = std::make_unique<TraceParser>(&traced.kernel_table());
  for (const SystemInstance::UserSpace& space : traced.user_spaces()) {
    parser->SetUserTable(space.pid, space.table);
  }
  parser->SetInitialContext(kKernelPid);
  return parser;
}

void ProfileSystemSpaces(TraceProfiler& profiler, const SystemInstance& traced) {
  profiler.AddTable(kKernelPid, &traced.kernel_table());
  profiler.AddSymbols(kKernelPid, traced.kernel_orig());
  for (const SystemInstance::UserSpace& space : traced.user_spaces()) {
    profiler.AddTable(space.pid, space.table);
    profiler.AddSymbols(space.pid, *space.orig);
    profiler.SetSpaceName(space.pid, space.name);
  }
}

ExperimentOptions ArchivedExperimentOptions(const ArchiveReader& archive, double* scale) {
  ExperimentOptions options;
  const std::string personality = archive.MetaValue("personality");
  if (!personality.empty()) {
    options.personality = PersonalityFromName(personality);
  }
  auto reject = [](const char* key, const std::string& text, const char* expected) {
    throw Error(StrFormat("archive metadata '%s' has invalid value '%s' (expected %s)", key,
                          text.c_str(), expected));
  };
  // Integer keys: decimal digits only, no larger than their field holds.
  auto read_integer = [&](const char* key, auto& field) {
    const std::string text = archive.MetaValue(key);
    if (text.empty()) {
      return;
    }
    using Field = std::remove_reference_t<decltype(field)>;
    const uint64_t max = std::numeric_limits<Field>::max();
    uint64_t value = 0;
    const char* end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || value > max) {
      reject(key, text, StrFormat("decimal digits, at most %llu",
                                  static_cast<unsigned long long>(max)).c_str());
    }
    field = static_cast<Field>(value);
  };
  // Real keys: `parse` accepts the whole text as a number in the key's range.
  auto read_real = [&](const char* key, double& field, auto parse, const char* range) {
    const std::string text = archive.MetaValue(key);
    if (!text.empty() && !parse(text, field)) {
      reject(key, text, range);
    }
  };
  read_integer("clock_period", options.clock_period);
  read_real("dilation", options.dilation, ParseDilation, "a number in [0, 4294967295]");
  read_integer("trace_buf_bytes", options.trace_buf_bytes);
  read_integer("scavenge", options.scavenge);
  read_integer("max_instructions", options.max_instructions);
  double workload_scale = 1;
  read_real("scale", workload_scale, ParseWorkloadScale, "a number in [0, 1024]");
  if (scale != nullptr) {
    *scale = workload_scale;
  }
  return options;
}

std::vector<std::string> ExperimentResult::Warnings() const {
  std::vector<std::string> warnings;
  if (parser_errors > 0) {
    warnings.push_back(StrFormat(
        "WARNING: '%s' had %llu trace parser validation error(s) — the "
        "reconstructed reference stream (and every prediction from it) is suspect",
        workload.c_str(), static_cast<unsigned long long>(parser_errors)));
  }
  if (DegeneratePrediction()) {
    warnings.push_back(StrFormat(
        "WARNING: '%s' prediction is degenerate: predicted 0 cycles against "
        "%llu measured — the trace produced no usable references",
        workload.c_str(), static_cast<unsigned long long>(measured_cycles)));
  }
  return warnings;
}

namespace {

// The body of RunExperiment, inside its experiment phase.
ExperimentResult RunBothSystems(const WorkloadSpec& workload, const ExperimentOptions& options) {
  EventRecorder* const events = options.events;
  // The teardown phase opens after the registry snapshot, and closes here,
  // declared first so it is destroyed last: after every local below, the
  // pipeline's join and both systems included.
  struct TeardownPhase {
    EventRecorder* events = nullptr;
    ~TeardownPhase() {
      if (events != nullptr) {
        events->End();
      }
    }
  } teardown;
  ExperimentResult result;
  result.workload = workload.name;
  result.personality = options.personality;

  // ---- Measured: the uninstrumented system with the hardware timer ----
  // Built on this thread: the traced side only needs the measured *build*
  // outputs (page layouts, original binaries), all of which are immutable
  // once BuildSystem returns, so the measured *run* overlaps the whole
  // traced half on a helper thread.
  auto build = [&](bool tracing) {
    return BuildSystem(ExperimentSystemConfig(workload, options, tracing));
  };
  std::unique_ptr<SystemInstance> measured;
  {
    EventRecorder::Scope scope(events, "build.measured", "build");
    measured = build(false);
  }
  // The set-up between the two builds: the helper's start, the primary
  // simulator, the variants' passes and the sweep engine.  Closed before
  // build.traced, or at exit when that build is never reached.
  std::optional<EventRecorder::Scope> analysis_setup;
  analysis_setup.emplace(events, "analysis.setup", "analysis");
  auto [idle_lo, idle_hi] = measured->IdleRange();
  measured->machine().SetIdleRange(idle_lo, idle_hi);

  // The helper runs the measured system and fills the measured-side result
  // fields; its run.measured phase lands on the helper's own track.
  uint64_t measured_run_wall_us = 0;
  std::exception_ptr measured_exc;
  // Declared after everything the helper touches, so every exit path —
  // a throw anywhere below included — joins it before any of that is
  // destroyed.
  std::jthread measured_thread([&] {
    try {
      EventRecorder::CycleScope cycles(events,
                                       [machine = &measured->machine()] { return machine->cycles(); });
      RunResult mr;
      uint64_t wall0 = EventRecorder::NowUs();
      {
        EventRecorder::Scope scope(events, "run.measured", "run");
        mr = measured->Run(options.max_instructions);
      }
      measured_run_wall_us = EventRecorder::NowUs() - wall0;
      if (!mr.halted) {
        throw Error(StrFormat("measured run of '%s' did not halt (pc=0x%08x)",
                              workload.name.c_str(), measured->machine().pc()));
      }
      result.measured_cycles = measured->ProcessCycles(1);
      result.measured_utlb = measured->UtlbMissCount();
      result.measured_idle_instructions = measured->machine().idle_instructions();
      result.measured_tlbdropins = measured->TlbDropins();
      result.measured_user_instructions = measured->machine().user_instructions();
      result.exit_code = measured->ProcessExitCode(1);
    } catch (...) {
      measured_exc = std::current_exception();
    }
  });

  // ---- Predicted: the traced system driving the analysis program ----
  // One parser feeds one tee: the primary simulator, the profiler, the
  // sweep engine, and a simulator per other reference stream the variants
  // need.  The parser consumes the trace during the traced run: the traced
  // system publishes each drain as one or more chunks, the earlier ones
  // while the machine still runs (paper §3: the analysis program consumes
  // the buffer in place), so no copy of the trace outlives its chunk.
  std::unique_ptr<SystemInstance> traced;
  std::unique_ptr<TraceParser> parser;
  TeeBatchSink tee;
  std::unique_ptr<TraceDrivenSimulator> simulator;
  std::unique_ptr<TraceProfiler> profiler;
  std::unique_ptr<SweepEngine> sweep_engine;
  // The simulators of the variants' streams other than the primary's, and
  // each variant's (simulator, lane).
  std::vector<std::unique_ptr<TraceDrivenSimulator>> variant_sims;
  std::vector<std::pair<TraceDrivenSimulator*, size_t>> variant_lanes;
  // Durable capture tee (ExperimentOptions::archive_path): rides the chunk
  // consumer in every transport mode.  Declared before the pipeline so
  // unwinding joins the consumer thread before the writer is destroyed.
  std::unique_ptr<ArchiveWriter> archive;
  // Pipelined transport state: the analysis stage, then the word pipeline.
  // Declared after every component their threads touch (parser, tee and
  // its sinks, archive), so stack unwinding joins both threads before any
  // of them is destroyed: first the parse thread, which feeds the analysis
  // stage, then the analysis thread.
  std::unique_ptr<RefBatchPipeline> analysis;
  std::unique_ptr<TracePipeline> pipeline;
  uint64_t traced_run_wall_us = 0;
  std::exception_ptr traced_exc;
  try {
    const PredictorConfig pconfig = ExperimentPredictorConfig(*measured, options);
    simulator = ExperimentSimulator(*measured, pconfig);

    // One event pass per reference stream, which the TLB wiring and the
    // page map fix.  The primary's stream is (its wiring, the experiment's
    // map); a variant whose stream already has a pass becomes a
    // memory-system lane of it, and any other variant opens a pass of its
    // own, with its memory system as lane 0.
    struct Pass {
      unsigned tlb_wired;
      uint32_t page_map_mult;
      TraceDrivenSimulator* sim;
    };
    std::vector<Pass> passes = {{pconfig.tlb_wired, 0, simulator.get()}};
    for (const ReplayVariant& v : options.replay_variants) {
      auto pass = std::find_if(passes.begin(), passes.end(), [&v](const Pass& p) {
        return p.tlb_wired == v.tlb_wired && p.page_map_mult == v.page_map_mult;
      });
      if (pass != passes.end()) {
        variant_lanes.push_back({pass->sim, pass->sim->AddMemorySystem(v.memsys)});
        continue;
      }
      PredictorConfig vconfig = pconfig;
      vconfig.memsys = v.memsys;
      vconfig.tlb_wired = v.tlb_wired;
      if (v.page_map_mult != 0) {
        vconfig.page_map = measured->PageMap(v.page_map_mult);
      }
      variant_sims.push_back(ExperimentSimulator(*measured, vconfig));
      passes.push_back({v.tlb_wired, v.page_map_mult, variant_sims.back().get()});
      variant_lanes.push_back({variant_sims.back().get(), 0});
    }
    if (options.sweep.Active()) {
      // Its construction rejects non-power-of-two family specs with a
      // diagnostic naming the size.
      SweepConfig sweep_config;
      sweep_config.page_map = pconfig.page_map;
      sweep_config.tlb_wired = pconfig.tlb_wired;
      sweep_config.icache = options.sweep.icache;
      sweep_config.dcache = options.sweep.dcache;
      sweep_config.tlb_max_entries = options.sweep.tlb_max_entries;
      sweep_engine = std::make_unique<SweepEngine>(sweep_config);
    }

    analysis_setup.reset();
    {
      EventRecorder::Scope scope(events, "build.traced", "build");
      traced = build(true);
    }
    {
      // The profiler's tables, the parser, the archive writer, and the
      // pipeline's two stages with their threads.
      EventRecorder::Scope scope(events, "trace.setup", "trace");
      if (options.profile) {
        profiler = std::make_unique<TraceProfiler>(options.profile_options);
        ProfileSystemSpaces(*profiler, *traced);
      }
      tee.Add(simulator.get());
      tee.Add(profiler.get());
      tee.Add(sweep_engine.get());
      for (const auto& sim : variant_sims) {
        tee.Add(sim.get());
      }
      parser = SystemTraceParser(*traced);
      if (options.pipeline) {
        analysis = std::make_unique<RefBatchPipeline>(&tee, events);
        parser->SetBatchSink(analysis.get());
      } else {
        parser->SetBatchSink(&tee);
      }
      // Pipelined, the parser's Feed phases land on the consumer thread's
      // track, which has no cycle source: the traced machine's cycle
      // counter belongs to this thread.
      parser->SetEventRecorder(events);

      // The chunk consumer: the parser, behind the archive tee when there
      // is one.  Synchronously it runs inside each sink call; pipelined it
      // runs on the consumer thread while the machine simulates ahead.
      // Either way it sees the identical chunk sequence and boundaries.
      std::function<void(const uint32_t*, size_t)> consume =
          [p = parser.get()](const uint32_t* words, size_t count) { p->Feed(words, count); };
      if (!options.archive_path.empty()) {
        archive = std::make_unique<ArchiveWriter>(options.archive_path,
                                                  ExperimentArchiveMeta(workload, options));
        consume = [w = archive.get(),
                   inner = std::move(consume)](const uint32_t* words, size_t count) {
          w->Append(words, count);
          inner(words, count);
        };
      }
      if (options.pipeline) {
        pipeline = std::make_unique<TracePipeline>(std::move(consume));
        traced->SetTraceSink([p = pipeline.get()](const uint32_t* words, size_t count) {
          p->Produce(words, count);
        });
      } else {
        traced->SetTraceSink(std::move(consume));
      }
    }

    EventRecorder::CycleScope cycles(events,
                                     [machine = &traced->machine()] { return machine->cycles(); });
    RunResult tr;
    uint64_t wall0 = EventRecorder::NowUs();
    {
      EventRecorder::Scope scope(events, "run.traced", "run");
      tr = traced->Run(options.max_instructions);
    }
    traced_run_wall_us = EventRecorder::NowUs() - wall0;
    if (!tr.halted) {
      throw Error(StrFormat("traced run of '%s' did not halt (pc=0x%08x)", workload.name.c_str(),
                            traced->machine().pc()));
    }
    if (pipeline != nullptr) {
      // Drain the word ring and join the parse thread, flush the parser's
      // last batch from here (the join hands the analysis ring's producer
      // side to this thread), then drain the analysis ring and join its
      // thread.  Each rethrows anything its thread threw mid-stream.  The
      // phase is the analysis tail the traced run did not hide.
      EventRecorder::Scope scope(events, "trace.pipeline_wait", "trace");
      pipeline->Finish();
      parser->Finish();
      analysis->Finish();
    }
    if (archive != nullptr) {
      // Every chunk is on disk; seal the directory footer.  A crash before
      // this point leaves a footerless archive the reader recovers by scan.
      EventRecorder::Scope scope(events, "trace.archive_finalize", "trace");
      archive->Finalize();
    }
    // The analysis tail, to the end of this block: synchronously, flush
    // the parser's last batch through the sinks; then read each sink's
    // result and its busy time on the tee.
    EventRecorder::Scope finish_scope(events, "analysis.finish", "analysis");
    if (pipeline == nullptr) {
      parser->Finish();
    }
    result.parser_errors = parser->stats().validation_errors;
    result.parse_wall_us = parser->self_us();
    if (analysis != nullptr) {
      result.parse_stall_wall_us = analysis->ring().producer_stall_us();
    }
    if (profiler != nullptr) {
      result.profile = profiler->Finish();
      result.profile_wall_us = tee.busy_us(profiler.get());
    }
    result.prediction = simulator->Finish();
    result.prediction_wall_us = tee.busy_us(simulator.get());
    if (sweep_engine != nullptr) {
      result.sweep = sweep_engine->Finish();
      result.sweep.wall_us = tee.busy_us(sweep_engine.get());
      result.sweep_ran = true;
      if (result.sweep.wall_us > 0) {
        // Equivalent-replay throughput: one pass priced `family_points`
        // configurations of `refs` references each.
        result.sweep_mrefs_per_sec = static_cast<double>(result.sweep.family_points) *
                                     static_cast<double>(result.sweep.refs) /
                                     static_cast<double>(result.sweep.wall_us);
      }
    }
    // Variant results in the caller's order.  A pass's busy time is
    // reported by the variant that opened it; a lane costs nothing apart
    // from its pass.
    for (const auto& sim : variant_sims) {
      sim->Finish();
    }
    for (size_t i = 0; i < options.replay_variants.size(); ++i) {
      const auto [sim, lane] = variant_lanes[i];
      ReplayVariantResult vr;
      vr.name = options.replay_variants[i].name;
      vr.prediction = sim->prediction(lane);
      vr.tlb = sim->tlb().stats();
      vr.refs = tee.refs();
      vr.wall_us = lane == 0 ? tee.busy_us(sim) : 0;
      result.replays.push_back(std::move(vr));
    }
    result.traced_machine_instructions = traced->machine().instructions();
    result.trace_words = traced->trace_words_drained();
    result.analysis_switches = traced->AnalysisSwitches();
  } catch (...) {
    traced_exc = std::current_exception();
  }
  measured_thread.join();
  if (measured_exc != nullptr) {
    std::rethrow_exception(measured_exc);
  }
  if (traced_exc != nullptr) {
    std::rethrow_exception(traced_exc);
  }

  if (traced->ProcessExitCode(1) != result.exit_code) {
    throw Error(StrFormat("'%s': traced exit code %u != measured %u — tracing distorted behavior",
                          workload.name.c_str(), traced->ProcessExitCode(1), result.exit_code));
  }
  result.run_wall_us = measured_run_wall_us + traced_run_wall_us;
  result.simulated_instructions =
      measured->machine().instructions() + traced->machine().instructions();

  // ---- Registry snapshot across every layer of both runs ----
  // Must happen before the SystemInstances go out of scope: the registry
  // bindings point into them.
  {
    EventRecorder::Scope scope(events, "stats.snapshot", "stats");
    StatsRegistry registry;
    measured->RegisterStats(registry, "measured.");
    traced->RegisterStats(registry, "traced.");
    parser->RegisterStats(registry, "parser.");
    if (archive != nullptr) {
      archive->RegisterStats(registry, "archive.");
    }
    simulator->RegisterStats(registry, "predicted.");
    if (sweep_engine != nullptr) {
      sweep_engine->RegisterStats(registry, "sweep.");
    }
    if (pipeline != nullptr) {
      pipeline->RegisterStats(registry, "trace.pipeline.");
      analysis->RegisterStats(registry, "trace.pipeline.analysis.");
    }
    result.stats = registry.Snapshot();
  }
  if (events != nullptr) {
    events->Begin("teardown", "teardown");
    teardown.events = events;
  }
  return result;
}

}  // namespace

ExperimentResult RunExperiment(const WorkloadSpec& workload, const ExperimentOptions& options) {
  EventRecorder::Scope scope(options.events, "experiment:" + workload.name, "experiment");
  return RunBothSystems(workload, options);
}

std::vector<ExperimentResult> RunSuite(const std::vector<WorkloadSpec>& workloads,
                                       const ExperimentOptions& options) {
  std::vector<ExperimentResult> results(workloads.size());
  RunIndexed(workloads.size(), options.jobs,
             [&](size_t i) { results[i] = RunExperiment(workloads[i], options); });
  return results;
}

}  // namespace wrl
