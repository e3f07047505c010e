// A TLB study in the style the paper's traces enabled (its reference [9],
// "A Simulation Based Study of TLB Performance"), rebuilt on the
// single-pass sweep engine: the traced machine runs *once*, its drained
// trace is captured into a packed TraceLog, and the whole configuration
// family — every TLB capacity on the LRU curve plus an 8-point cache-size
// family — is priced by ONE streaming parse of the capture
// (Mattson-style stack distances for the TLB, Hill-&-Smith forest
// simulation for the caches), next to the faithful 64-entry production
// model on the same tee.  A K-point sweep costs one traced run + one
// parse, instead of K replays.  The measured (uninstrumented) run overlaps
// the traced run on a helper thread.
//
//   $ ./build/examples/tlb_study [--scale S] [--sweep-sizes 8,64,...]
//                                [--check] [--json report.json]
//
// --check replays every cache family point through an independent
// TraceDrivenSimulator and fails loudly unless the sweep's miss counts are
// bit-identical — the exactness contract, verified on demand.
//
// With --json the run emits a wrlstats/1 report: the full counter-registry
// snapshot of the traced and measured systems, the capture's compression
// ratio, the production TLB's and the sweep's busy-time throughput next to
// the live-analysis bound, the TLB miss curves, the cache family, and the
// event timeline (load the file in chrome://tracing or ui.perfetto.dev).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "harness/replay_engine.h"
#include "kernel/system_build.h"
#include "sim/predictor.h"
#include "sim/tlb_sim.h"
#include "stats/events.h"
#include "stats/stats.h"
#include "support/json.h"
#include "sweep/sweep.h"
#include "trace/parser.h"
#include "trace/trace_log.h"
#include "workloads/workloads.h"

using namespace wrl;

namespace {

// The 8-point cache-size family priced by the sweep (alongside the TLB
// curve): 4 KB through 512 KB at the production line sizes.
constexpr uint32_t kCacheFamilyMin = 4 * 1024;
constexpr uint32_t kCacheFamilyMax = 512 * 1024;
constexpr uint32_t kIcacheLine = 16;
constexpr uint32_t kDcacheLine = 4;

// The largest TLB the curve prices: far beyond any real TLB, and small
// enough that the curve's arrays stay small.
constexpr unsigned kMaxSweepEntries = 65536;

// --sweep-sizes 8,16,... (default: the classic curve).  Each size is a
// count in [1, kMaxSweepEntries]; anything else exits 2 with the usage line.
std::vector<unsigned> SweepSizes(int argc, char** argv) {
  std::string spec = "8,16,32,64,128,256";
  for (int i = 1; i < argc; ++i) {
    if (const char* value = BenchFlagValue(argc, argv, i, "--sweep-sizes")) {
      spec = value;
    }
  }
  std::vector<unsigned> sizes;
  for (std::string_view field : SplitFields(spec, ",")) {
    unsigned value = 0;
    if (!ParseDecimal(field, value) || value == 0 || value > kMaxSweepEntries) {
      fprintf(stderr,
              "usage: tlb_study [--scale X] [--sweep-sizes N,...] [--check] [--json PATH]\n"
              "  X is a number in [0, 1024], each N a count in [1, %u]\n",
              kMaxSweepEntries);
      std::exit(2);
    }
    sizes.push_back(value);
  }
  return sizes;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = BenchJsonPath(argc, argv);
  const double scale = BenchScaleOr(argc, argv, 0.15);
  const bool check = HasFlag(argc, argv, "--check");
  const std::vector<unsigned> sizes = SweepSizes(argc, argv);
  const unsigned max_entries =
      sizes.empty() ? 64u : *std::max_element(sizes.begin(), sizes.end());
  WorkloadSpec w = PaperWorkload("eqntott", scale);  // The TLB-hostile one.
  printf("collecting the system trace of %s (one traced run, one sweep pass)...\n",
         w.name.c_str());

  EventRecorder events;
  ExperimentOptions options;
  options.events = &events;
  auto sys = BuildSystem(ExperimentSystemConfig(w, options, true));

  // Capture once: the trace's chunks land in the packed TraceLog; nothing
  // is parsed while the machine runs.
  TraceLog log;
  sys->SetTraceSink([&log](const uint32_t* words, size_t n) { log.Append(words, n); });

  // The measured (uninstrumented) system is independent of the sweep, so
  // its run overlaps the traced run on a helper thread, recording on a
  // timeline track of its own.
  auto measured = BuildSystem(ExperimentSystemConfig(w, ExperimentOptions{}, false));
  std::exception_ptr measured_exc;
  // Declared after everything the helper touches, so any exit joins it
  // first.
  std::jthread measured_thread([&] {
    try {
      EventRecorder::CycleScope cycles(
          &events, [m = &measured->machine()]() -> uint64_t { return m->cycles(); });
      EventRecorder::Scope scope(&events, "run.measured:" + w.name, "run");
      measured->Run(options.max_instructions);
    } catch (...) {
      measured_exc = std::current_exception();
    }
  });

  RunResult r;
  uint64_t traced_wall_us = 0;
  {
    EventRecorder::CycleScope cycles(&events,
                                     [m = &sys->machine()]() -> uint64_t { return m->cycles(); });
    EventRecorder::Scope scope(&events, "run.traced:" + w.name, "run");
    uint64_t wall0 = EventRecorder::NowUs();
    r = sys->Run(options.max_instructions);
    traced_wall_us = EventRecorder::NowUs() - wall0;
  }
  measured_thread.join();
  if (measured_exc != nullptr) {
    std::rethrow_exception(measured_exc);
  }
  if (!r.halted) {
    printf("did not halt!\n");
    return 1;
  }

  // One parse of the capture feeding exactly two sinks on one tee: the
  // faithful production TLB and the sweep engine pricing every other
  // configuration in the same pass.
  ReplaySource source;
  source.log = &log;
  source.kernel_table = &sys->kernel_table();
  source.user_tables.emplace_back(1, &sys->user_table());
  ReplayEngine engine(std::move(source));

  SweepConfig sweep_config;
  sweep_config.page_map = measured->PageMap();
  sweep_config.tlb_max_entries = max_entries;
  sweep_config.icache.push_back({kIcacheLine, kCacheFamilyMin, kCacheFamilyMax});
  sweep_config.dcache.push_back({kDcacheLine, kCacheFamilyMin, kCacheFamilyMax});

  std::vector<ReplayEngine::Config> configs;
  configs.push_back({"production64", [] { return std::make_unique<TlbSimulator>(); }});
  configs.push_back(
      {"sweep", [&sweep_config] { return std::make_unique<SweepEngine>(sweep_config); }});
  std::vector<ReplayEngine::Outcome> outcomes;
  {
    EventRecorder::Scope scope(&events, "replay", "analysis");
    outcomes = engine.Run(configs);
  }
  if (engine.parser_stats().validation_errors > 0) {
    fprintf(stderr, "*** WARNING: %llu trace validation errors — the reconstructed trace "
            "is suspect ***\n",
            static_cast<unsigned long long>(engine.parser_stats().validation_errors));
  }
  auto* production = static_cast<TlbSimulator*>(outcomes[0].sink.get());
  auto* sweep = static_cast<SweepEngine*>(outcomes[1].sink.get());
  const SweepResult& sres = sweep->Finish();
  const uint64_t sweep_wall_us = outcomes[1].wall_us;

  printf("\nLRU TLB capacity-miss curve (exact, one stack-distance pass):\n");
  printf("%-10s %12s\n", "entries", "misses");
  for (unsigned entries : sizes) {
    if (entries == 0 || entries > sres.tlb_lru_misses.size()) {
      continue;
    }
    printf("%8u   %12llu\n", entries,
           static_cast<unsigned long long>(sres.tlb_lru_misses[entries - 1]));
  }
  printf("\ncache-size family (exact, same pass; line %u/%u bytes):\n", kIcacheLine, kDcacheLine);
  printf("%-10s %12s %12s\n", "size", "i-misses", "d-misses");
  for (size_t i = 0; i < sres.icache.size(); ++i) {
    printf("%7uK   %12llu %12llu\n", sres.icache[i].size_bytes / 1024,
           static_cast<unsigned long long>(sres.icache[i].misses),
           static_cast<unsigned long long>(sres.dcache[i].misses));
  }
  printf("\nfaithful 64-entry simulation (random replacement, synthesized\n");
  printf("handler refs): %llu misses\n",
         static_cast<unsigned long long>(production->stats().utlb_misses));

  printf("measured on the uninstrumented system (kernel counter): %llu misses\n",
         static_cast<unsigned long long>(measured->UtlbMissCount()));

  // --check: replay every cache family point through an independent
  // TraceDrivenSimulator (one more parse, all K simulators on its tee) and
  // demand bit-identical miss counts.  Also the honest speedup measurement:
  // those K simulators' busy time is exactly what the sweep pass replaced.
  uint64_t check_wall_us = 0;
  if (check) {
    printf("\nverifying %zu family points against independent replays...\n", sres.icache.size());
    std::vector<ReplayEngine::Config> check_configs;
    for (const SweepCachePoint& point : sres.icache) {
      PredictorConfig pc;
      pc.page_map = measured->PageMap();
      pc.memsys.icache = {point.size_bytes, point.line_bytes};
      check_configs.push_back({"check" + std::to_string(point.size_bytes), [pc] {
                                 return std::make_unique<TraceDrivenSimulator>(pc);
                               }});
    }
    std::vector<ReplayEngine::Outcome> check_outcomes;
    {
      EventRecorder::Scope scope(&events, "replay.check", "analysis");
      check_outcomes = engine.Run(check_configs);
    }
    for (size_t i = 0; i < check_outcomes.size(); ++i) {
      auto* sim = static_cast<TraceDrivenSimulator*>(check_outcomes[i].sink.get());
      Prediction p = sim->Finish();
      const SweepCachePoint& point = sres.icache[i];
      check_wall_us += check_outcomes[i].wall_us;
      if (p.memsys_stats.icache_misses != point.misses ||
          p.memsys_stats.dcache_misses != sweep->DcacheMisses(kDcacheLine, 64 * 1024)) {
        fprintf(stderr,
                "*** MISMATCH at %uK: sweep i=%llu d=%llu, replay i=%llu d=%llu ***\n",
                point.size_bytes / 1024, static_cast<unsigned long long>(point.misses),
                static_cast<unsigned long long>(sweep->DcacheMisses(kDcacheLine, 64 * 1024)),
                static_cast<unsigned long long>(p.memsys_stats.icache_misses),
                static_cast<unsigned long long>(p.memsys_stats.dcache_misses));
        return 1;
      }
    }
    printf("all %zu points bit-identical; %zu replays took %.1fms vs one %.1fms sweep pass "
           "(%.1fx)\n",
           sres.icache.size(), check_outcomes.size(),
           static_cast<double>(check_wall_us) / 1000.0,
           static_cast<double>(sweep_wall_us) / 1000.0,
           sweep_wall_us == 0
               ? 0.0
               : static_cast<double>(check_wall_us) / static_cast<double>(sweep_wall_us));
  }

  // Throughput accounting: the production TLB's busy-time rate against the
  // live-analysis bound (refs over the traced machine run's wall time — the
  // fastest live analysis could possibly go, since it runs in lockstep
  // with trace generation), and the sweep's equivalent-replay rate (one
  // pass pricing family_points configurations at once).  The replay rate
  // covers the production TLB only — the sweep pass is priced per family
  // point by sweep.mrefs_per_sec, matching the harness's accounting.
  const double refs = static_cast<double>(engine.parser_stats().refs);
  const double live_mrefs =
      traced_wall_us == 0 ? 0 : refs / (static_cast<double>(traced_wall_us) * 1e-6) / 1e6;
  const double replay_mrefs =
      outcomes[0].wall_us == 0 ? 0 : refs / static_cast<double>(outcomes[0].wall_us);
  const double speedup = live_mrefs == 0 ? 0 : replay_mrefs / live_mrefs;
  const double sweep_mrefs =
      sweep_wall_us == 0
          ? 0
          : static_cast<double>(sres.family_points) * refs / static_cast<double>(sweep_wall_us);
  printf("\ncapture: %llu words -> %llu bytes (%.2fx compression)\n",
         static_cast<unsigned long long>(log.words()),
         static_cast<unsigned long long>(log.stored_bytes()), log.CompressionRatio());
  printf("replay:  %zu configs x %.1fM refs; production TLB at %.1f Mrefs/s "
         "(live-analysis bound %.1f Mrefs/s, %.1fx)\n",
         outcomes.size(), refs / 1e6, replay_mrefs, live_mrefs, speedup);
  printf("sweep:   %zu family points + %u-entry TLB curve in one pass "
         "(%.0f Mrefs/s equivalent)\n",
         sres.family_points, max_entries, sweep_mrefs);

  if (!json_path.empty()) {
    // The wrlstats report: everything above, machine-readable.
    StatsRegistry registry;
    sys->RegisterStats(registry, "traced.");
    measured->RegisterStats(registry, "measured.");
    engine.RegisterParserStats(registry, "parser.");
    log.RegisterStats(registry, "tracelog.");
    production->RegisterStats(registry, "tlbsim.");
    sweep->RegisterStats(registry, "sweep.");
    StatsSnapshot snapshot = registry.Snapshot();

    JsonWriter writer;
    writer.BeginObject();
    writer.KV("schema", "wrlstats/1");
    writer.KV("tool", "tlb_study");
    writer.KV("scale", scale);
    writer.KV("clock_hz", kClockHz);
    writer.Key("metrics").BeginObject();
    writer.KV("eqntott.measured_cycles", static_cast<double>(measured->machine().cycles()));
    writer.KV("eqntott.measured_utlb_misses", static_cast<double>(measured->UtlbMissCount()));
    writer.KV("eqntott.simulated_utlb_misses",
              static_cast<double>(production->stats().utlb_misses));
    writer.KV("eqntott.parser_errors",
              static_cast<double>(engine.parser_stats().validation_errors));
    writer.KV("traced_machine_runs", 1.0);
    writer.KV("replay.configs", static_cast<double>(outcomes.size()));
    writer.KV("replay.refs", refs);
    writer.KV("replay.mrefs_per_sec", replay_mrefs);
    writer.KV("live.mrefs_per_sec", live_mrefs);
    writer.KV("replay.speedup_vs_live", speedup);
    writer.KV("tracelog.words", static_cast<double>(log.words()));
    writer.KV("tracelog.stored_bytes", static_cast<double>(log.stored_bytes()));
    writer.KV("tracelog.compression_ratio", log.CompressionRatio());
    writer.KV("sweep.family_points", static_cast<double>(sres.family_points));
    writer.KV("sweep.tlb_max_entries", static_cast<double>(max_entries));
    if (sweep_mrefs > 0) {
      writer.KV("sweep.mrefs_per_sec", sweep_mrefs);
    }
    if (check && check_wall_us > 0 && sweep_wall_us > 0) {
      writer.KV("sweep.speedup_vs_replay",
                static_cast<double>(check_wall_us) / static_cast<double>(sweep_wall_us));
    }
    for (unsigned entries : sizes) {
      if (entries == 0 || entries > sres.tlb_lru_misses.size()) {
        continue;
      }
      writer.KV("eqntott.sweep.entries_" + std::to_string(entries) + ".misses",
                static_cast<double>(sres.tlb_lru_misses[entries - 1]));
    }
    for (size_t i = 0; i < sres.icache.size(); ++i) {
      const std::string kb = std::to_string(sres.icache[i].size_bytes / 1024);
      writer.KV("eqntott.sweep.icache_" + kb + "k.misses",
                static_cast<double>(sres.icache[i].misses));
      writer.KV("eqntott.sweep.dcache_" + kb + "k.misses",
                static_cast<double>(sres.dcache[i].misses));
    }
    writer.EndObject();
    writer.Key("counters");
    snapshot.WriteJson(writer);
    writer.Key("traceEvents").BeginArray();
    WriteChromeTraceEvents(writer, events.events());
    writer.EndArray();
    writer.EndObject();

    std::string json = writer.TakeString();
    std::FILE* file = std::fopen(json_path.c_str(), "w");
    if (file == nullptr ||
        std::fwrite(json.data(), 1, json.size(), file) != json.size() ||
        std::fclose(file) != 0) {
      fprintf(stderr, "cannot write report to %s\n", json_path.c_str());
      return 1;
    }
    fprintf(stderr, "wrote run report to %s\n", json_path.c_str());
  }
  return 0;
}
