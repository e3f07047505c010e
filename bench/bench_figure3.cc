// Figure 3: percent error in predicted execution times for Ultrix, as an
// ASCII bar chart.  The paper's shape: most workloads within ~5%, with the
// short-running and I/O-heavy ones (sed, compress) and the write-buffer-
// bound one (liv) larger.
//
// Each workload's traced machine run also prices a what-if sweep
// (half/quarter-size caches, a slower memory, more wired TLB entries): one
// live parse of the trace feeds the primary prediction and every variant
// side by side on the analysis tee.  cache32k, cache16k and slowmem share
// the primary's reference stream, so they are exact memory-system lanes of
// the primary simulator; wired16's extra wired entries change the
// synthesized-handler stream, so it walks its own.
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"

using namespace wrl;

namespace {

// The what-if sweep priced beside each workload's primary prediction.
std::vector<ReplayVariant> SweepVariants() {
  std::vector<ReplayVariant> variants;
  {
    ReplayVariant v;
    v.name = "cache32k";
    v.memsys.icache.size_bytes = 32 * 1024;
    v.memsys.dcache.size_bytes = 32 * 1024;
    variants.push_back(v);
  }
  {
    ReplayVariant v;
    v.name = "cache16k";
    v.memsys.icache.size_bytes = 16 * 1024;
    v.memsys.dcache.size_bytes = 16 * 1024;
    variants.push_back(v);
  }
  {
    ReplayVariant v;
    v.name = "slowmem";
    v.memsys.read_miss_penalty = 30;
    v.memsys.uncached_penalty = 30;
    variants.push_back(v);
  }
  {
    ReplayVariant v;
    v.name = "wired16";
    v.tlb_wired = 16;
    variants.push_back(v);
  }
  return variants;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = BenchScale(argc, argv);
  unsigned jobs = BenchJobs(argc, argv);
  printf("=== Figure 3: Error in predicted execution times for Ultrix (scale %.2f) ===\n", scale);
  EventRecorder events;
  ExperimentOptions base;
  base.replay_variants = SweepVariants();
  // The single-pass sweep exports the LRU TLB capacity curve.
  base.sweep.enabled = true;
  base.sweep.tlb_max_entries = 64;
  std::vector<ExperimentResult> results =
      RunPersonalitySuite(Personality::kUltrix, scale, &events, jobs, base);
  printf("%-10s %8s  (one '#' per half percent of |error|)\n", "workload", "error");
  double worst = 0;
  for (const ExperimentResult& r : results) {
    double err = r.TimeErrorPercent();
    worst = std::max(worst, std::fabs(err));
    int bars = static_cast<int>(std::fabs(err) * 2.0 + 0.5);
    printf("%-10s %+7.2f%% |", r.workload.c_str(), err);
    for (int i = 0; i < bars && i < 60; ++i) {
      putchar('#');
    }
    putchar('\n');
  }
  printf("\nworst |error| = %.2f%%\n", worst);

  // The what-if sweep: predicted time for each what-if config, from the same
  // single parse as the primary prediction (one traced run per workload).
  printf("\n=== What-if sweep (one parse) ===\n");
  printf("%-10s %10s", "workload", "primary");
  for (const ReplayVariant& v : base.replay_variants) {
    printf(" %10s", v.name.c_str());
  }
  printf("\n");
  double sweep_mrefs_sum = 0;
  unsigned sweep_runs = 0;
  for (const ExperimentResult& r : results) {
    printf("%-10s %10.4f", r.workload.c_str(), r.PredictedSeconds(25e6));
    for (const ReplayVariantResult& v : r.replays) {
      printf(" %10.4f", static_cast<double>(v.prediction.PredictedCycles()) / 25e6);
    }
    printf("\n");
    if (r.sweep_ran && r.sweep_mrefs_per_sec > 0) {
      sweep_mrefs_sum += r.sweep_mrefs_per_sec;
      ++sweep_runs;
    }
  }
  if (sweep_runs > 0) {
    printf("\nsweep pass: %.0f Mrefs/s equivalent (mean; family points x refs / pass wall time)\n",
           sweep_mrefs_sum / static_cast<double>(sweep_runs));
  }
  MaybeWriteRunReport(argc, argv, "bench_figure3", scale, results, &events);
  return 0;
}
