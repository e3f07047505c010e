#include "harness/experiment.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <type_traits>

#include "support/error.h"
#include "support/strings.h"
#include "trace/parser.h"

namespace wrl {
namespace {

uint64_t WallNowUs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

bool IsPow2(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

// A variant the sweep engine can price exactly: only the (power-of-two)
// cache geometry differs from the primary configuration.  Anything that
// perturbs the reference stream or the non-cache timing — TLB wiring,
// page-map draws, miss penalties, write-buffer shape — needs its own
// simulator.
bool GeometryOnly(const ReplayVariant& v, const PredictorConfig& primary) {
  const MemSysConfig& base = primary.memsys;
  return v.tlb_wired == primary.tlb_wired && v.page_map_mult == 0 &&
         v.memsys.read_miss_penalty == base.read_miss_penalty &&
         v.memsys.uncached_penalty == base.uncached_penalty &&
         v.memsys.wb_depth == base.wb_depth &&
         v.memsys.wb_cycles_per_entry == base.wb_cycles_per_entry &&
         IsPow2(v.memsys.icache.line_bytes) && IsPow2(v.memsys.icache.size_bytes) &&
         IsPow2(v.memsys.dcache.line_bytes) && IsPow2(v.memsys.dcache.size_bytes) &&
         v.memsys.icache.size_bytes >= v.memsys.icache.line_bytes &&
         v.memsys.dcache.size_bytes >= v.memsys.dcache.line_bytes;
}

// Extends `families` so the family at `line` covers `size` (the forest
// prices every power-of-two size in the range anyway).
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

// Live progress heartbeat (stderr only, so reports are untouched): a
// monitor thread prints workloads done, aggregate parse throughput, the
// suite-so-far sim.mips, and a naive ETA every two seconds.  Workers feed
// it through atomics; enabled by ExperimentOptions::progress or, the one
// place it is read, WRL_PROGRESS=1 in the environment.
class ProgressMeter {
 public:
  ProgressMeter(bool enabled, size_t total) : total_(total) {
    const char* env = std::getenv("WRL_PROGRESS");
    enabled_ = (enabled || (env != nullptr && std::strcmp(env, "0") != 0)) && total_ > 0;
    if (!enabled_) {
      return;
    }
    start_us_ = WallNowUs();
    monitor_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!stop_) {
        cv_.wait_for(lock, kInterval);
        if (stop_) {
          break;
        }
        Emit();
      }
    });
  }

  ~ProgressMeter() {
    if (!monitor_.joinable()) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    monitor_.join();
    Emit();  // Final line, so even sub-interval suites report once.
  }

  void OnDone(const ExperimentResult& result) {
    if (!enabled_) {
      return;
    }
    done_.fetch_add(1);
    if (result.stats.Has("parser.refs")) {
      refs_.fetch_add(result.stats.CounterValue("parser.refs"));
    }
    sim_insts_.fetch_add(result.simulated_instructions);
    run_wall_us_.fetch_add(result.run_wall_us);
    if (result.sweep_ran) {
      // Sweep passes are reported on their own — one pass prices many
      // family points, so folding them into the replay/ref totals would
      // misstate both.
      sweep_passes_.fetch_add(1);
      sweep_points_.fetch_add(result.sweep.family_points);
      sweep_point_refs_.fetch_add(result.sweep.family_points * result.sweep.refs);
      sweep_wall_us_.fetch_add(result.sweep.wall_us);
    }
  }

 private:
  void Emit() const {
    uint64_t done = done_.load();
    uint64_t elapsed_us = WallNowUs() - start_us_;
    double elapsed_s = static_cast<double>(elapsed_us) * 1e-6;
    double mrefs =
        elapsed_s > 0 ? static_cast<double>(refs_.load()) / elapsed_s / 1e6 : 0.0;
    uint64_t wall = run_wall_us_.load();
    double mips =
        wall > 0 ? static_cast<double>(sim_insts_.load()) / static_cast<double>(wall) : 0.0;
    char eta[32];
    if (done == 0 || done >= total_) {
      std::snprintf(eta, sizeof eta, "--");
    } else {
      double eta_s = elapsed_s * static_cast<double>(total_ - done) / static_cast<double>(done);
      std::snprintf(eta, sizeof eta, "%.0fs", eta_s);
    }
    char sweep[64];
    uint64_t passes = sweep_passes_.load();
    if (passes == 0) {
      sweep[0] = '\0';
    } else {
      // Per-family-point throughput: the equivalent replay rate the sweep
      // passes delivered (points × refs per second of sweep wall time).
      uint64_t sweep_wall = sweep_wall_us_.load();
      double point_mrefs =
          sweep_wall > 0
              ? static_cast<double>(sweep_point_refs_.load()) / static_cast<double>(sweep_wall)
              : 0.0;
      std::snprintf(sweep, sizeof sweep, " | sweep %llu pass(es), %llu pts @ %.0f Mrefs/s",
                    static_cast<unsigned long long>(passes),
                    static_cast<unsigned long long>(sweep_points_.load()), point_mrefs);
    }
    std::fprintf(stderr, "[wrl] %llu/%zu workloads | %.1f Mrefs/s | sim %.1f mips%s | eta %s\n",
                 static_cast<unsigned long long>(done), total_, mrefs, mips, sweep, eta);
  }

  static constexpr std::chrono::milliseconds kInterval{2000};

  size_t total_;
  bool enabled_ = false;
  uint64_t start_us_ = 0;
  std::atomic<uint64_t> done_{0};
  std::atomic<uint64_t> refs_{0};
  std::atomic<uint64_t> sim_insts_{0};
  std::atomic<uint64_t> run_wall_us_{0};
  std::atomic<uint64_t> sweep_passes_{0};
  std::atomic<uint64_t> sweep_points_{0};
  std::atomic<uint64_t> sweep_point_refs_{0};
  std::atomic<uint64_t> sweep_wall_us_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread monitor_;
};

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
  if (options.personality == Personality::kMach) {
    config.policy = PagePolicy::kScrambled;
    config.policy_mult = 9;
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

ExperimentResult RunExperiment(const WorkloadSpec& workload, const ExperimentOptions& options) {
  ExperimentResult result;
  result.workload = workload.name;
  result.personality = options.personality;

  // Timeline: a private recorder unless the caller shares one for the suite.
  // The experiment phase is opened/closed manually so the completed event is
  // harvestable into result.timeline; a thrown Error abandons the recorder.
  EventRecorder local_events;
  EventRecorder* events = options.events != nullptr ? options.events : &local_events;
  events->Begin("experiment:" + workload.name, "experiment");

  // ---- Measured: the uninstrumented system with the hardware timer ----
  // Built on this thread: the traced side only needs the measured *build*
  // outputs (page layouts, original binaries), all of which are immutable
  // once BuildSystem returns, so the measured *run* overlaps the whole
  // traced half on a helper thread.
  auto build = [&](bool tracing) {
    SystemConfig config = ExperimentSystemConfig(workload, options, tracing);
    config.events = events;
    return BuildSystem(config);
  };
  std::unique_ptr<SystemInstance> measured;
  {
    EventRecorder::Scope scope(events, "build.measured", "build");
    measured = build(false);
  }
  auto [idle_lo, idle_hi] = measured->IdleRange();
  measured->machine().SetIdleRange(idle_lo, idle_hi);

  // The helper runs the measured system and fills the measured-side result
  // fields.  It records into a private recorder (EventRecorder is not
  // thread-safe), absorbed into the shared timeline at its wall offset
  // after the join.
  EventRecorder measured_events;
  const uint64_t measured_epoch_us = events->ElapsedUs();
  uint64_t measured_run_wall_us = 0;
  std::exception_ptr measured_exc;
  // Declared after everything the helper touches, so every exit path —
  // a throw anywhere below included — joins it before any of that is
  // destroyed.
  std::jthread measured_thread([&] {
    try {
      measured_events.SetCycleSource(
          [machine = &measured->machine()] { return machine->cycles(); });
      RunResult mr;
      uint64_t wall0 = WallNowUs();
      {
        EventRecorder::Scope scope(&measured_events, "run.measured", "run");
        mr = measured->Run(options.max_instructions);
      }
      measured_run_wall_us = WallNowUs() - wall0;
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
  // sweep engine, and a simulator per replayed variant.  The parser
  // consumes the trace during the traced run: the traced system publishes
  // each drain as one or more chunks, the earlier ones while the machine
  // still runs (paper §3: the analysis program consumes the buffer in
  // place), so no copy of the trace outlives its chunk.
  std::unique_ptr<SystemInstance> traced;
  std::unique_ptr<TraceParser> parser;
  TeeBatchSink tee;
  std::unique_ptr<TraceDrivenSimulator> simulator;
  std::unique_ptr<TraceProfiler> profiler;
  std::unique_ptr<SweepEngine> sweep_engine;
  // One slot per caller variant: its own simulator when it replays, null
  // when the sweep absorbs it.
  std::vector<std::unique_ptr<TraceDrivenSimulator>> variant_sims(options.replay_variants.size());
  // Durable capture tee (ExperimentOptions::archive_path): rides the chunk
  // consumer in every transport mode.  Declared before the pipeline so
  // unwinding joins the consumer thread before the writer is destroyed.
  std::unique_ptr<ArchiveWriter> archive;
  // Pipelined transport state.  Declared after every component the consumer
  // thread touches (parser, tee and its sinks, archive), so stack unwinding
  // joins the consumer before any of them is destroyed.  Pipelined, the
  // parser runs on the consumer thread, so it records its Feed phases into
  // a private recorder (no cycle source — the traced machine's cycle
  // counter belongs to the producer thread) that is absorbed into the
  // shared timeline after the pipeline drains.
  std::unique_ptr<EventRecorder> consumer_events;
  uint64_t consumer_epoch_us = 0;
  std::unique_ptr<TracePipeline> pipeline;
  uint64_t traced_run_wall_us = 0;
  std::exception_ptr traced_exc;
  try {
    const PredictorConfig pconfig = ExperimentPredictorConfig(*measured, options);
    simulator = ExperimentSimulator(*measured, pconfig);

    // Partition the replay variants: with the sweep active, geometry-only
    // variants are priced by the single-pass sweep engine; the rest get
    // their own simulators.  The sweep engine's families are widened to
    // cover every absorbed geometry, and its construction rejects
    // non-power-of-two family specs with a diagnostic naming the size.
    const bool sweep_active = options.sweep.Active();
    SweepConfig sweep_config;
    sweep_config.base = pconfig.memsys;
    sweep_config.page_map = pconfig.page_map;
    sweep_config.tlb_wired = pconfig.tlb_wired;
    sweep_config.icache = options.sweep.icache;
    sweep_config.dcache = options.sweep.dcache;
    sweep_config.tlb_max_entries = options.sweep.tlb_max_entries;
    for (size_t i = 0; i < options.replay_variants.size(); ++i) {
      const ReplayVariant& v = options.replay_variants[i];
      if (sweep_active && GeometryOnly(v, pconfig)) {
        CoverFamilyPoint(sweep_config.icache, v.memsys.icache.line_bytes,
                         v.memsys.icache.size_bytes);
        CoverFamilyPoint(sweep_config.dcache, v.memsys.dcache.line_bytes,
                         v.memsys.dcache.size_bytes);
        continue;
      }
      PredictorConfig vconfig = pconfig;
      vconfig.memsys = v.memsys;
      vconfig.tlb_wired = v.tlb_wired;
      if (v.page_map_mult != 0) {
        vconfig.page_map = measured->PageMap(v.page_map_mult);
      }
      variant_sims[i] = ExperimentSimulator(*measured, vconfig);
    }
    if (sweep_active) {
      sweep_engine = std::make_unique<SweepEngine>(sweep_config);
    }

    {
      EventRecorder::Scope scope(events, "build.traced", "build");
      traced = build(true);
    }
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
    parser->SetBatchSink(&tee);
    if (options.pipeline) {
      consumer_events = std::make_unique<EventRecorder>();
      consumer_epoch_us = events->ElapsedUs();
      parser->SetEventRecorder(consumer_events.get());
    } else {
      parser->SetEventRecorder(events);
    }

    // The chunk consumer: the parser, behind the archive tee when there is
    // one.  Synchronously it runs inside each sink call; pipelined it runs
    // on the consumer thread while the machine simulates ahead.  Either way
    // it sees the identical chunk sequence and boundaries.
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

    events->SetCycleSource([machine = &traced->machine()] { return machine->cycles(); });
    RunResult tr;
    uint64_t wall0 = WallNowUs();
    {
      EventRecorder::Scope scope(events, "run.traced", "run");
      tr = traced->Run(options.max_instructions);
    }
    traced_run_wall_us = WallNowUs() - wall0;
    if (!tr.halted) {
      throw Error(StrFormat("traced run of '%s' did not halt (pc=0x%08x)", workload.name.c_str(),
                            traced->machine().pc()));
    }
    if (pipeline != nullptr) {
      // Drain the ring and join the consumer; rethrows anything the
      // parser/sink chain threw mid-stream.  The phase is the analysis
      // tail the traced run did not hide.
      EventRecorder::Scope scope(events, "trace.pipeline_wait", "trace");
      pipeline->Finish();
    }
    if (archive != nullptr) {
      // Every chunk is on disk; seal the directory footer.  A crash before
      // this point leaves a footerless archive the reader recovers by scan.
      EventRecorder::Scope scope(events, "trace.archive_finalize", "trace");
      archive->Finalize();
    }
    // The analysis tail, to the end of this block: flush the parser's last
    // batch, then read each sink's result and its busy time on the tee.
    EventRecorder::Scope finish_scope(events, "analysis.finish", "analysis");
    parser->Finish();
    result.parser_errors = parser->stats().validation_errors;
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
    // Variant results in the caller's order: swept variants carry exact
    // miss counts from the shared pass and derived timing, replayed ones
    // their own simulator's numbers.
    for (size_t i = 0; i < options.replay_variants.size(); ++i) {
      const ReplayVariant& v = options.replay_variants[i];
      ReplayVariantResult vr;
      vr.name = v.name;
      if (TraceDrivenSimulator* sim = variant_sims[i].get()) {
        vr.prediction = sim->Finish();
        vr.tlb = sim->tlb().stats();
        vr.refs = tee.refs();
        vr.wall_us = tee.busy_us(sim);
      } else {
        vr.prediction = sweep_engine->DerivePrediction(result.prediction, v.memsys);
        vr.tlb = sweep_engine->tlb_stats();
        vr.refs = result.sweep.refs;
        vr.swept = true;
      }
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
    }
    result.stats = registry.Snapshot();
  }
  // Fold the helper thread's run.measured phase back into the shared
  // timeline at its true wall offset.
  events->Absorb(measured_events.TakeEvents(), measured_epoch_us, /*depth_offset=*/1);
  if (consumer_events != nullptr) {
    // Fold the consumer thread's parser phases back in at their true wall
    // offset (nested under the experiment scope, like the measured half).
    events->Absorb(consumer_events->TakeEvents(), consumer_epoch_us, /*depth_offset=*/1);
  }
  events->End();  // experiment:<name>
  events->SetCycleSource(nullptr);
  if (events == &local_events) {
    result.timeline = local_events.TakeEvents();
  }
  return result;
}

std::vector<ExperimentResult> RunSuite(const std::vector<WorkloadSpec>& workloads,
                                       const ExperimentOptions& options) {
  unsigned jobs = options.jobs == 0 ? 1 : options.jobs;
  jobs = static_cast<unsigned>(
      std::min<size_t>(jobs, workloads.empty() ? size_t{1} : workloads.size()));
  ProgressMeter progress(options.progress, workloads.size());
  if (jobs <= 1) {
    std::vector<ExperimentResult> results;
    results.reserve(workloads.size());
    for (const WorkloadSpec& w : workloads) {
      results.push_back(RunExperiment(w, options));
      progress.OnDone(results.back());
    }
    return results;
  }

  // Worker pool: each worker claims the next unstarted workload and runs
  // the whole experiment with a private event recorder (options.events is
  // not thread-safe).  Results land in workload order regardless of which
  // worker finishes first, and timelines are merged back in that same
  // order, so reports are scheduling-independent.
  std::vector<ExperimentResult> results(workloads.size());
  std::vector<std::exception_ptr> errors(workloads.size());
  std::atomic<size_t> next{0};
  ExperimentOptions worker_options = options;
  worker_options.events = nullptr;
  std::vector<std::thread> pool;
  pool.reserve(jobs);
  for (unsigned t = 0; t < jobs; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < workloads.size(); i = next.fetch_add(1)) {
        try {
          results[i] = RunExperiment(workloads[i], worker_options);
          progress.OnDone(results[i]);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    });
  }
  for (std::thread& worker : pool) {
    worker.join();
  }
  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) {
      std::rethrow_exception(error);
    }
  }
  if (options.events != nullptr) {
    for (ExperimentResult& r : results) {
      options.events->Absorb(std::move(r.timeline));
      r.timeline.clear();
    }
  }
  return results;
}

}  // namespace wrl
