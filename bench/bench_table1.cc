// Table 1: the experimental workloads, with their descriptions and the
// dynamic behavior of our reconstructions (instruction counts and simulated
// execution times on the uninstrumented Ultrix system).
//
// --jobs N runs the workloads on a worker pool; rows and
// metrics are emitted in workload order either way, and each worker records
// its runs on a timeline track of its own.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "support/parallel.h"

using namespace wrl;

namespace {

struct Row {
  bool halted = false;
  uint64_t user_instructions = 0;
  double seconds = 0;
};

Row RunWorkload(const WorkloadSpec& w, EventRecorder* events) {
  Row row;
  const ExperimentOptions options;
  auto sys = BuildSystem(ExperimentSystemConfig(w, options, false));
  RunResult r;
  {
    EventRecorder::CycleScope cycles(events,
                                     [m = &sys->machine()]() -> uint64_t { return m->cycles(); });
    EventRecorder::Scope scope(events, "run:" + w.name, "run");
    r = sys->Run(options.max_instructions);
  }
  row.halted = r.halted;
  row.user_instructions = sys->machine().user_instructions();
  row.seconds = static_cast<double>(sys->ProcessCycles(1)) / kClockHz;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = BenchScale(argc, argv);
  unsigned jobs = BenchJobs(argc, argv);
  printf("=== Table 1: Experimental workloads (scale %.2f) ===\n", scale);
  printf("%-10s %-12s %12s %9s  %s\n", "workload", "class", "user instrs", "seconds",
         "description");
  EventRecorder events;
  const std::vector<WorkloadSpec> workloads = PaperWorkloads(scale);
  std::vector<Row> rows(workloads.size());

  if (jobs > 1 && workloads.size() > 1) {
    fprintf(stderr, "  running %zu workloads on %zu workers...\n", workloads.size(),
            std::min<size_t>(jobs, workloads.size()));
  }
  RunIndexed(workloads.size(), jobs, [&](size_t i) { rows[i] = RunWorkload(workloads[i], &events); });

  std::map<std::string, double> metrics;
  for (size_t i = 0; i < workloads.size(); ++i) {
    const WorkloadSpec& w = workloads[i];
    const Row& row = rows[i];
    if (!row.halted) {
      printf("%-10s DID NOT HALT\n", w.name.c_str());
      continue;
    }
    printf("%-10s %-12s %12llu %9.4f  %s\n", w.name.c_str(),
           w.fp_intensive ? "fp" : "integer",
           static_cast<unsigned long long>(row.user_instructions), row.seconds,
           w.description.c_str());
    metrics[w.name + ".user_instructions"] = static_cast<double>(row.user_instructions);
    metrics[w.name + ".seconds"] = row.seconds;
  }
  MaybeWriteMetricsReport(argc, argv, "bench_table1", scale, metrics, &events);
  return 0;
}
