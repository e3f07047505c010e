// The validation experiments (paper §5): run each workload twice —
// uninstrumented on the timing machine (*measured*) and instrumented with
// the trace feeding the analysis program (*predicted*) — and compare.
//
//   Table 2 / Figure 3: execution times, measured vs predicted
//   Table 3:            user TLB miss counts, measured vs predicted
#ifndef WRLTRACE_HARNESS_EXPERIMENT_H_
#define WRLTRACE_HARNESS_EXPERIMENT_H_

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "kernel/system_build.h"
#include "prof/prof.h"
#include "sim/predictor.h"
#include "stats/events.h"
#include "stats/stats.h"
#include "sweep/sweep.h"
#include "trace/chunk_ring.h"
#include "trace/trace_archive.h"
#include "workloads/workloads.h"

namespace wrl {

// Report/archive spelling of a personality and its inverse (used by run
// reports and wrltrace/1 archive metadata; FromName throws wrl::Error on an
// unknown spelling).
const char* PersonalityName(Personality personality);
Personality PersonalityFromName(const std::string& name);

// The simulated machine's clock rate (the DECstation 5000/200's 25 MHz),
// which renders cycles as seconds in tables and reports.
constexpr double kClockHz = 25e6;

// One extra analysis configuration of a what-if study, priced from the
// same live parse as the primary prediction — no additional traced
// machine run.  Its TLB wiring and page-map draw fix the reference stream
// it sees; its memory system is priced as a lane of the one simulator
// that walks that stream (sim/predictor.h), so the result is exactly what
// a dedicated simulator would report.
struct ReplayVariant {
  std::string name;
  MemSysConfig memsys;
  unsigned tlb_wired = Tlb::kWired;
  // Page-map permutation multiplier override (0 = the experiment's map).
  uint32_t page_map_mult = 0;
};

struct ReplayVariantResult {
  std::string name;
  Prediction prediction;
  TlbSimStats tlb;
  uint64_t refs = 0;
  // Busy time on the analysis tee of the simulator this variant's stream
  // opened; 0 for a lane on a stream an earlier configuration opened (its
  // cost is in that simulator's time).
  uint64_t wall_us = 0;
};

// Single-pass sweep configuration (src/sweep).  When active, one
// SweepEngine pass rides the analysis tee and prices the cache families
// and the TLB curve below: exact miss counts for every family point, no
// timing.
struct SweepOptions {
  // Activates the sweep even with no families or curve (it then still
  // exports the TLB reuse-distance profile).
  bool enabled = false;
  std::vector<CacheFamilySpec> icache;
  std::vector<CacheFamilySpec> dcache;
  // Capacity bound of the exported LRU TLB miss curve (0 = no curve).
  unsigned tlb_max_entries = 0;

  bool Active() const {
    return enabled || !icache.empty() || !dcache.empty() || tlb_max_entries > 0;
  }
};

struct ExperimentOptions {
  Personality personality = Personality::kUltrix;
  // Untraced clock period; the traced system runs it at 1/15th the rate
  // (paper §4.1).
  uint32_t clock_period = 200000;
  double dilation = 15.0;
  uint32_t trace_buf_bytes = 16u << 20;
  // Liveness-driven epoxie scavenging.  Every counter, prediction, and
  // reconstructed reference is bit-identical either way; only the
  // instrumented text growth — and the traced.epoxie.* dilation metrics
  // derived from it — changes.
  bool scavenge = true;
  uint64_t max_instructions = 3'000'000'000;
  // Optional timeline: build/run/analysis phases and trace drains are
  // recorded here, each on the track of the thread that ran it (the
  // caller's, the measured run's helper, the pipeline's consumer).  Null
  // records nothing.
  EventRecorder* events = nullptr;
  // Worker threads for RunSuite (1 = serial).  Workers run whole
  // experiments; results come back in workload order, so everything but
  // the timeline is independent of scheduling.  Every worker records into
  // `events` on a track of its own, against the one process-wide clock.
  unsigned jobs = 1;
  // The parser always hands references to the analysis in batches; this
  // constant remains only for callers that still read it.
  static constexpr bool batch = true;
  // Pipelined trace transport (simulate ∥ parse ∥ analyze): trace chunks
  // flow through a bounded ring to a parse thread, and the parser's
  // reference batches through a second ring to an analysis thread that
  // runs the analysis tee, so the traced machine keeps simulating while
  // each chunk is parsed and the parse runs ahead of the sinks.  A drain is
  // published as one or more chunks, the earlier ones while the traced
  // machine still runs, so both threads work during the traced run.
  // Defaults to on when the host has more than one hardware thread;
  // WRL_PIPELINE=0 forces the synchronous path and WRL_PIPELINE=1 forces
  // the pipeline even on single-core hosts.
  // Every counter, trace word, profile, and report value is identical
  // either way; the overlap itself is observable via the trace.pipeline.*
  // metrics, which exist only on pipelined runs.
  bool pipeline = PipelineEnabled();
  // Ring capacity in chunks (a drain is published as one or more chunks).
  // Fixed; the wrlbench benchmark still reads it.
  static constexpr size_t pipeline_depth = kDefaultPipelineDepth;
  // The analysis always runs live, behind the parser, during the traced
  // run; this constant remains only for the wrlbench benchmark, which still
  // reads it.
  static constexpr bool capture_replay = false;
  // Extra analysis configurations priced from the same live parse of the
  // traced run, not another traced machine run.  Variants that share a
  // reference stream (TLB wiring and page map) share one simulator on the
  // analysis tee, each as a memory-system lane; the primary's stream needs
  // no simulator beyond the primary's.  RunSuite already parallelizes
  // across workloads.
  std::vector<ReplayVariant> replay_variants;
  // Attribution profiling (src/prof): tee the reconstructed reference
  // stream into a TraceProfiler and return the finished Profile in
  // ExperimentResult::profile.  Bit-identical in every mode.
  bool profile = false;
  ProfileOptions profile_options;
  // Single-pass multi-configuration sweep (see SweepOptions above).
  SweepOptions sweep;
  // Tee the capture to a durable wrltrace/1 archive at this path
  // (trace/trace_archive.h): every chunk streams to disk as the analysis
  // consumes it, synchronous or pipelined, so the on-disk chunk sequence is
  // exactly the sequence the analysis saw (a drain is published as one or
  // more chunks).  The archive is finalized (directory footer + fsync)
  // after the traced run's final drain; a crash mid-run leaves a
  // recoverable footerless archive.  Empty = no archive.
  std::string archive_path;
  // Extra identity metadata recorded into the archive alongside the
  // harness's own keys (workload, personality, clock_period, dilation,
  // trace_buf_bytes, scavenge, max_instructions) — e.g. a tool's workload
  // scale, so `wrltrace replay` can rebuild the capturing system.
  ArchiveMeta archive_meta;
};

struct ExperimentResult {
  std::string workload;
  Personality personality = Personality::kUltrix;

  // Measured (uninstrumented run, hardware timer + kernel counters).
  uint64_t measured_cycles = 0;
  uint64_t measured_utlb = 0;
  uint64_t measured_idle_instructions = 0;
  uint64_t measured_tlbdropins = 0;
  uint64_t measured_user_instructions = 0;
  uint32_t exit_code = 0;

  // Predicted (trace-driven simulation).
  Prediction prediction;
  uint64_t traced_machine_instructions = 0;
  uint64_t trace_words = 0;
  uint64_t parser_errors = 0;
  uint64_t analysis_switches = 0;

  // Host wall microseconds spent inside the two simulated runs (builds and
  // analysis excluded) and the simulated instructions they retired — the
  // raw material for the report-level `sim.mips` throughput metric.  Wall
  // clock, hence deliberately *not* part of the per-workload metrics.
  uint64_t run_wall_us = 0;
  uint64_t simulated_instructions = 0;

  // Busy time on the analysis tee of the primary simulator (with every
  // variant lane it prices) and of the profiler (0 unless
  // ExperimentOptions::profile).  Wall clock, like the sweep's and the
  // variants' wall_us below.
  uint64_t prediction_wall_us = 0;
  uint64_t profile_wall_us = 0;
  // The parser's self time: its wall time in Feed and Finish less its
  // batch-sink calls (TraceParser::self_us).
  uint64_t parse_wall_us = 0;
  // Pipelined: the parser's wall time blocked on a full ring of reference
  // batches, which is how long the analysis held the parse back (0
  // synchronous).
  uint64_t parse_stall_wall_us = 0;

  // One result per ReplayVariant, in option order.
  std::vector<ReplayVariantResult> replays;

  // Single-pass sweep outputs (sweep_ran only when SweepOptions::Active()).
  // sweep.wall_us is the sweep engine's busy time on the analysis tee.
  bool sweep_ran = false;
  SweepResult sweep;
  // Equivalent-replay throughput of the sweep pass: family points × refs
  // per busy second of the one pass.
  double sweep_mrefs_per_sec = 0;

  // The attribution profile (empty unless ExperimentOptions::profile).
  Profile profile;

  // Full registry snapshot across both runs: `measured.*` and `traced.*`
  // system counters, `parser.*`, and `predicted.*` analysis counters.
  StatsSnapshot stats;

  double MeasuredSeconds() const { return static_cast<double>(measured_cycles) / kClockHz; }
  double PredictedSeconds() const { return prediction.PredictedCycles() / kClockHz; }
  // A degenerate prediction: the analysis produced no cycles for a workload
  // the hardware measurably ran — the error percentage is meaningless.
  bool DegeneratePrediction() const {
    return prediction.PredictedCycles() <= 0 && measured_cycles != 0;
  }
  double TimeErrorPercent() const {
    double predicted = prediction.PredictedCycles();
    if (measured_cycles == 0) {
      // No measured baseline to compare against: agreement is 0; a nonzero
      // prediction against a zero measurement has unbounded error.
      return predicted <= 0 ? 0 : std::numeric_limits<double>::infinity();
    }
    return 100.0 * (predicted - static_cast<double>(measured_cycles)) /
           static_cast<double>(measured_cycles);
  }
  // Human-readable warnings that must not pass silently: parser validation
  // errors and degenerate predictions.
  std::vector<std::string> Warnings() const;
};

// ---- Set-up shared by the harness and the tools ----
// One place for each rule that rebuilds part of an experiment, so
// `wrltrace` and `wrlprof` reproduce the harness's systems bit for bit.

// The measured (untraced) or traced system of an experiment: the traced
// clock runs at 1/dilation the rate (paper §4.1); Mach scrambles its pages;
// trace drains land on `options.events`.  Outside the kernel's own tests,
// every measured or traced system is built from this config.
SystemConfig ExperimentSystemConfig(const WorkloadSpec& workload, const ExperimentOptions& options,
                                    bool tracing);

// The primary analysis configuration.  Page mapping (paper §4.2): under
// the deterministic policy the simulator reproduces the measured run's
// map; under Mach's random policy it draws a different permutation — the
// repeatability problem the paper reports.
PredictorConfig ExperimentPredictorConfig(const SystemInstance& measured,
                                          const ExperimentOptions& options);

// A simulator for `config` that prices arithmetic stalls from the measured
// system's original binaries.
std::unique_ptr<TraceDrivenSimulator> ExperimentSimulator(const SystemInstance& measured,
                                                          const PredictorConfig& config);

// A parser of the traced system's trace, starting in kernel context.
std::unique_ptr<TraceParser> SystemTraceParser(const SystemInstance& traced);

// Registers the traced system's address spaces (tables, original-image
// symbols, names) with `profiler`.
void ProfileSystemSpaces(TraceProfiler& profiler, const SystemInstance& traced);

// The options a harness-recorded archive identifies, read back as
// RunExperiment wrote them; a key the archive lacks keeps its default.
// `*scale`, when given, receives the workload scale a tool recorded under
// `scale` (default 1).  Every identity key is validated, since archive
// bytes are untrusted: clock_period, trace_buf_bytes, scavenge and
// max_instructions must be decimal digits within their field (scavenge is
// 0 or 1); dilation must be a finite number in [0, 4294967295], the range
// the traced clock's uint32_t truncation defines; scale must pass
// ParseWorkloadScale.  A bad value throws wrl::Error naming the key and
// the value.
ExperimentOptions ArchivedExperimentOptions(const ArchiveReader& archive,
                                            double* scale = nullptr);

// Runs one workload through both systems.  The measured run executes on a
// helper thread while this thread builds and runs the traced half; the
// measured system's build outputs are immutable by then, so every result
// field is what a serial run computes.  If both runs fail, the measured
// run's error is the one thrown.
ExperimentResult RunExperiment(const WorkloadSpec& workload, const ExperimentOptions& options);

// Runs the full Table 2 / Table 3 suite for one personality: RunExperiment
// over `workloads` on `options.jobs` workers (support/parallel.h).
std::vector<ExperimentResult> RunSuite(const std::vector<WorkloadSpec>& workloads,
                                       const ExperimentOptions& options);

}  // namespace wrl

#endif  // WRLTRACE_HARNESS_EXPERIMENT_H_
