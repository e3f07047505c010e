// Table 2: run times, measured and predicted, in (simulated) seconds, for
// both personalities.  As in the paper, absolute values depend on the
// substrate; the claim under test is that trace-driven prediction tracks
// the hardware measurement for most workloads.
#include <cstdio>

#include "bench/bench_util.h"

using namespace wrl;

int main(int argc, char** argv) {
  double scale = BenchScale(argc, argv);
  unsigned jobs = BenchJobs(argc, argv);
  printf("=== Table 2: Run Times, measured and predicted, in seconds (scale %.2f) ===\n", scale);
  EventRecorder events;
  std::vector<ExperimentResult> ultrix =
      RunPersonalitySuite(Personality::kUltrix, scale, &events, jobs);
  std::vector<ExperimentResult> mach = RunPersonalitySuite(Personality::kMach, scale, &events, jobs);

  printf("%-10s | %21s | %21s\n", "", "Ultrix", "Mach 3.0");
  printf("%-10s | %10s %10s | %10s %10s\n", "workload", "measured", "predicted", "measured",
         "predicted");
  printf("-----------+-----------------------+----------------------\n");
  for (size_t i = 0; i < ultrix.size(); ++i) {
    printf("%-10s | %10.4f %10.4f | %10.4f %10.4f\n", ultrix[i].workload.c_str(),
           ultrix[i].MeasuredSeconds(), ultrix[i].PredictedSeconds(), mach[i].MeasuredSeconds(),
           mach[i].PredictedSeconds());
  }
  printf("\n(parser validation errors: ");
  uint64_t errors = 0;
  for (const auto& r : ultrix) {
    errors += r.parser_errors;
  }
  for (const auto& r : mach) {
    errors += r.parser_errors;
  }
  printf("%llu)\n", static_cast<unsigned long long>(errors));

  std::vector<ExperimentResult> all = ultrix;
  all.insert(all.end(), mach.begin(), mach.end());
  MaybeWriteRunReport(argc, argv, "bench_table2", scale, all, &events);
  return errors == 0 ? 0 : 1;
}
