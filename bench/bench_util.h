// Shared plumbing for the experiment benches: flag parsing, the --json
// report emitter, and suite running with loud warning surfacing.
#ifndef WRLTRACE_BENCH_BENCH_UTIL_H_
#define WRLTRACE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"
#include "stats/events.h"
#include "support/error.h"
#include "support/strings.h"
#include "workloads/workloads.h"

namespace wrl {

// The value of flag `name` at argv[i], given as `name=V` or as `name V`
// (then i steps past V); nullptr when argv[i] is not that flag or V is
// missing.
inline const char* BenchFlagValue(int argc, char** argv, int& i, std::string_view name) {
  const std::string_view arg = argv[i];
  if (arg.size() > name.size() && arg.substr(0, name.size()) == name && arg[name.size()] == '=') {
    return argv[i] + name.size() + 1;
  }
  if (arg == name && i + 1 < argc) {
    return argv[++i];
  }
  return nullptr;
}

// A bench's numeric flags take well-formed values in range only, as the
// tools' do: anything else exits 2 with this usage line.
[[noreturn]] inline void BenchUsage(char** argv) {
  const std::string_view path = argv[0];
  const std::string_view name = path.substr(path.rfind('/') + 1);
  fprintf(stderr,
          "usage: %.*s [--scale X] [--jobs N] [--json PATH]\n"
          "  X is a number in [0, 1024], N a count\n",
          static_cast<int>(name.size()), name.data());
  std::exit(2);
}

// Workload scale for bench runs: --scale X, or `fallback` when it is not
// given or 0.
inline double BenchScaleOr(int argc, char** argv, double fallback) {
  double scale = fallback;
  for (int i = 1; i < argc; ++i) {
    if (const char* value = BenchFlagValue(argc, argv, i, "--scale")) {
      if (!ParseWorkloadScale(value, scale)) {
        BenchUsage(argv);
      }
    }
  }
  return scale == 0 ? fallback : scale;
}

// The standard bench default: 0.2, chosen so the full two-personality suite
// completes in a few minutes.
inline double BenchScale(int argc, char** argv) { return BenchScaleOr(argc, argv, 0.2); }

// Worker threads for suite runs: --jobs N (default 1 = serial; 0 also
// means 1).  Results and reports are identical either way.
inline unsigned BenchJobs(int argc, char** argv) {
  unsigned jobs = 1;
  for (int i = 1; i < argc; ++i) {
    if (const char* value = BenchFlagValue(argc, argv, i, "--jobs")) {
      if (!ParseDecimal(value, jobs)) {
        BenchUsage(argv);
      }
    }
  }
  return jobs == 0 ? 1u : jobs;
}

// Report destination: --json PATH.  Empty when no machine-readable report
// was requested.
inline std::string BenchJsonPath(int argc, char** argv) {
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (const char* value = BenchFlagValue(argc, argv, i, "--json")) {
      path = value;
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
