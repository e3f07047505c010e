// §4.3's buffer sizing: the in-kernel buffer bounds how long the system
// runs between generation/analysis mode switches ("the current system uses
// a 64 megabyte buffer ... approximately 32 million instructions of
// continuous execution").  We sweep the buffer size and report the
// instructions-per-switch ratio, which should scale linearly.
//
// --jobs N (or WRL_JOBS) runs the sweep points on a worker pool; rows,
// metrics, and the extrapolation are printed in size order either way.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "kernel/system_build.h"
#include "support/parallel.h"

using namespace wrl;

namespace {

struct SweepPoint {
  uint32_t kb = 0;
  bool halted = false;
  uint64_t switches = 0;
  uint64_t instructions = 0;
};

SweepPoint RunPoint(const WorkloadSpec& w, uint32_t kb) {
  SweepPoint point;
  point.kb = kb;
  SystemConfig config;
  config.tracing = true;
  config.clock_period = 200000 * 15;
  config.trace_buf_bytes = kb * 1024;
  config.program_source = w.source;
  config.program_name = w.name;
  config.files = w.files;
  auto sys = BuildSystem(config);
  sys->SetTraceSink([](const uint32_t*, size_t) {});
  RunResult r = sys->Run(3'000'000'000ull);
  point.halted = r.halted;
  point.switches = sys->AnalysisSwitches();
  point.instructions = sys->machine().instructions();
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = BenchScale(argc, argv);
  unsigned jobs = BenchJobs(argc, argv);
  WorkloadSpec w = PaperWorkload("compress", scale);
  const std::vector<uint32_t> sizes = {192u, 384u, 768u, 1536u};
  printf("=== In-kernel buffer sizing vs analysis-mode switches ===\n");
  printf("%-10s %10s %14s %16s\n", "buffer", "switches", "traced instrs", "instrs/switch");

  // The sweep points are independent traced runs; with --jobs they go on a
  // worker pool, results landing in size order.
  std::vector<SweepPoint> points(sizes.size());
  if (jobs > 1) {
    fprintf(stderr, "  running %zu sweep points on %zu workers...\n", sizes.size(),
            std::min<size_t>(jobs, sizes.size()));
  }
  RunIndexed(sizes.size(), jobs, [&](size_t i) { points[i] = RunPoint(w, sizes[i]); });

  std::map<std::string, double> metrics;
  double per_mb = 0;
  for (const SweepPoint& point : points) {
    if (!point.halted) {
      printf("%7uKB DID NOT HALT\n", point.kb);
      continue;
    }
    double per_switch =
        point.switches ? static_cast<double>(point.instructions) / point.switches : 0;
    printf("%7uKB %10llu %14llu %16.0f\n", point.kb,
           static_cast<unsigned long long>(point.switches),
           static_cast<unsigned long long>(point.instructions), per_switch);
    std::string key = "buf" + std::to_string(point.kb) + "kb";
    metrics[key + ".switches"] = static_cast<double>(point.switches);
    metrics[key + ".instructions"] = static_cast<double>(point.instructions);
    metrics[key + ".instrs_per_switch"] = per_switch;
    if (point.switches > 0) {
      per_mb = per_switch / (point.kb / 1024.0);
    }
  }
  if (per_mb > 0) {
    printf("\nextrapolation: a 64MB buffer sustains ~%.0fM instructions between\n",
           per_mb * 64 / 1e6);
    printf("analysis phases (the paper reports ~32M; the ratio depends on the\n");
    printf("workload's trace density).\n");
    metrics["extrapolated_instrs_per_64mb"] = per_mb * 64;
  }
  MaybeWriteMetricsReport(argc, argv, "bench_buffer", scale, metrics);
  return 0;
}
