// Machine-readable run reports (schema "wrlstats/1").
//
// One JSON document carries everything a harness needs to diff two runs:
//   * per-experiment measured/predicted headline numbers and their deltas
//     (the §5 validation currency: cycles, UTLB misses, idle instructions);
//   * the full wrlstats counter-registry snapshot of every layer;
//   * a flat `metrics` object of doubles — the BENCH_*.json perf-trajectory
//     record — so trend tooling needs no schema knowledge;
//   * the event timeline under `traceEvents`, which makes the whole report
//     loadable as-is in chrome://tracing or ui.perfetto.dev (both treat
//     unknown top-level keys as metadata).
#ifndef WRLTRACE_HARNESS_REPORT_H_
#define WRLTRACE_HARNESS_REPORT_H_

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "stats/events.h"

namespace wrl {

struct RunReportOptions {
  std::string tool;  // Emitting binary ("bench_table2", "tlb_study", ...).
  double scale = 0;  // Workload scale; 0 = not applicable.
  // Entries kept per profile table (blocks/symbols/pages) when experiments
  // carry an attribution profile; 0 = everything.
  size_t profile_top = 20;
};

// Renders the full report document.
std::string RunReportJson(const std::vector<ExperimentResult>& results,
                          const std::vector<TimelineEvent>& events,
                          const RunReportOptions& options);

// Renders and writes the report; throws wrl::Error on I/O failure.
void WriteRunReport(const std::string& path, const std::vector<ExperimentResult>& results,
                    const std::vector<TimelineEvent>& events, const RunReportOptions& options);

// The schema-light variant for benches that measure something other than
// experiments: just `tool` + flat `metrics` (and the timeline when given).
void WriteMetricsReport(const std::string& path, const std::string& tool,
                        const std::map<std::string, double>& metrics,
                        const std::vector<TimelineEvent>& events, double scale = 0);

// Prints every ExperimentResult warning (parser validation errors,
// degenerate predictions) to `out`, loudly.  Returns the number printed.
size_t PrintResultWarnings(const ExperimentResult& result, std::FILE* out);

}  // namespace wrl

#endif  // WRLTRACE_HARNESS_REPORT_H_
