// Shared plumbing for the experiment benches: scale handling, the --json
// report emitter, and suite running with loud warning surfacing.
#ifndef WRLTRACE_BENCH_BENCH_UTIL_H_
#define WRLTRACE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"
#include "stats/events.h"
#include "support/error.h"
#include "workloads/workloads.h"

namespace wrl {

// Workload scale for bench runs: --scale=X or WRL_SCALE env, falling back
// to `fallback` when neither is given.
inline double BenchScaleOr(int argc, char** argv, double fallback) {
  double scale = fallback;
  if (const char* env = std::getenv("WRL_SCALE")) {
    scale = std::atof(env);
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      scale = std::atof(arg.c_str() + 8);
    }
  }
  return scale <= 0 ? fallback : scale;
}

// The standard bench default: 0.2, chosen so the full two-personality suite
// completes in a few minutes.
inline double BenchScale(int argc, char** argv) { return BenchScaleOr(argc, argv, 0.2); }

// Worker threads for suite runs: --jobs=N, --jobs N, or WRL_JOBS env
// (default 1 = serial).  Results and reports are identical either way.
inline unsigned BenchJobs(int argc, char** argv) {
  long jobs = 1;
  if (const char* env = std::getenv("WRL_JOBS")) {
    jobs = std::atol(env);
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--jobs=", 0) == 0) {
      jobs = std::atol(arg.c_str() + 7);
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = std::atol(argv[i + 1]);
    }
  }
  return jobs < 1 ? 1u : static_cast<unsigned>(jobs);
}

// Report destination: --json=PATH, --json PATH, or WRL_JSON env.  Empty
// when no machine-readable report was requested.
inline std::string BenchJsonPath(int argc, char** argv) {
  std::string path;
  if (const char* env = std::getenv("WRL_JSON")) {
    path = env;
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      path = arg.substr(7);
    } else if (arg == "--json" && i + 1 < argc) {
      path = argv[i + 1];
    }
  }
  return path;
}

// Runs the full paper-workload suite for one personality on `jobs`
// workers, then prints each result's warnings.  `options` carries any extra
// experiment options (replay variants, sweep, profile, ...);
// personality/events/jobs are overwritten from the explicit arguments.
inline std::vector<ExperimentResult> RunPersonalitySuite(Personality personality, double scale,
                                                         EventRecorder* events, unsigned jobs,
                                                         ExperimentOptions options) {
  options.personality = personality;
  options.events = events;
  options.jobs = jobs;
  const std::vector<WorkloadSpec> workloads = PaperWorkloads(scale);
  fprintf(stderr, "  running %zu workloads (%s) on %u worker(s)...\n", workloads.size(),
          PersonalityName(personality), jobs);
  std::vector<ExperimentResult> results = RunSuite(workloads, options);
  for (const ExperimentResult& r : results) {
    PrintResultWarnings(r, stderr);
  }
  return results;
}

inline std::vector<ExperimentResult> RunPersonalitySuite(Personality personality, double scale,
                                                         EventRecorder* events = nullptr,
                                                         unsigned jobs = 1) {
  return RunPersonalitySuite(personality, scale, events, jobs, ExperimentOptions());
}

// Emits the full run report when --json was requested.  Returns true when a
// report was written.
inline bool MaybeWriteRunReport(int argc, char** argv, const char* tool, double scale,
                                const std::vector<ExperimentResult>& results,
                                const EventRecorder* events = nullptr) {
  std::string path = BenchJsonPath(argc, argv);
  if (path.empty()) {
    return false;
  }
  RunReportOptions options;
  options.tool = tool;
  options.scale = scale;
  static const std::vector<TimelineEvent> kNoEvents;
  try {
    WriteRunReport(path, results, events != nullptr ? events->events() : kNoEvents, options);
  } catch (const Error& e) {
    fprintf(stderr, "error: %s\n", e.what());
    std::exit(1);
  }
  fprintf(stderr, "wrote run report to %s\n", path.c_str());
  return true;
}

// Emits the flat metrics-only report when --json was requested.
inline bool MaybeWriteMetricsReport(int argc, char** argv, const char* tool, double scale,
                                    const std::map<std::string, double>& metrics,
                                    const EventRecorder* events = nullptr) {
  std::string path = BenchJsonPath(argc, argv);
  if (path.empty()) {
    return false;
  }
  static const std::vector<TimelineEvent> kNoEvents;
  try {
    WriteMetricsReport(path, tool, metrics, events != nullptr ? events->events() : kNoEvents,
                       scale);
  } catch (const Error& e) {
    fprintf(stderr, "error: %s\n", e.what());
    std::exit(1);
  }
  fprintf(stderr, "wrote metrics report to %s\n", path.c_str());
  return true;
}

}  // namespace wrl

#endif  // WRLTRACE_BENCH_BENCH_UTIL_H_
