// Table 1: the experimental workloads, with their descriptions and the
// dynamic behavior of our reconstructions (instruction counts and simulated
// execution times on the uninstrumented Ultrix system).
//
// --jobs N (or WRL_JOBS) runs the workloads on a worker pool; rows, metrics,
// and the timeline are emitted in workload order either way (per-worker
// event recorders are absorbed deterministically).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "kernel/system_build.h"
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
  SystemConfig config;
  config.program_source = w.source;
  config.program_name = w.name;
  config.files = w.files;
  auto sys = BuildSystem(config);
  events->SetCycleSource([m = &sys->machine()]() -> uint64_t { return m->cycles(); });
  RunResult r;
  {
    EventRecorder::Scope scope(events, "run:" + w.name, "run");
    r = sys->Run(3'000'000'000ull);
  }
  events->SetCycleSource(nullptr);
  row.halted = r.halted;
  row.user_instructions = sys->machine().user_instructions();
  row.seconds = static_cast<double>(sys->ProcessCycles(1)) / 25e6;
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

  // With --jobs the workloads go on a worker pool, each recording into a
  // private recorder whose timeline is absorbed in workload order.
  const bool pooled = jobs > 1 && workloads.size() > 1;
  if (pooled) {
    fprintf(stderr, "  running %zu workloads on %zu workers...\n", workloads.size(),
            std::min<size_t>(jobs, workloads.size()));
  }
  std::vector<EventRecorder> recorders(pooled ? workloads.size() : 0);
  RunIndexed(workloads.size(), jobs, [&](size_t i) {
    rows[i] = RunWorkload(workloads[i], pooled ? &recorders[i] : &events);
  });
  for (EventRecorder& recorder : recorders) {
    events.Absorb(recorder.TakeEvents());
  }

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
