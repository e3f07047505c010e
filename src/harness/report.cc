#include "harness/report.h"

#include <cmath>

#include "support/error.h"
#include "support/json.h"
#include "support/strings.h"

namespace wrl {

namespace {

std::string MetricKey(const ExperimentResult& result, const char* leaf) {
  return StrFormat("%s.%s.%s", PersonalityName(result.personality), result.workload.c_str(),
                   leaf);
}

// The flat perf-trajectory record: one double per headline number.
std::map<std::string, double> FlatMetrics(const std::vector<ExperimentResult>& results) {
  std::map<std::string, double> metrics;
  for (const ExperimentResult& r : results) {
    metrics[MetricKey(r, "measured_seconds")] = r.MeasuredSeconds();
    metrics[MetricKey(r, "predicted_seconds")] = r.PredictedSeconds();
    metrics[MetricKey(r, "time_error_percent")] = r.TimeErrorPercent();
    metrics[MetricKey(r, "measured_utlb_misses")] = static_cast<double>(r.measured_utlb);
    metrics[MetricKey(r, "predicted_utlb_misses")] =
        static_cast<double>(r.prediction.utlb_misses);
    metrics[MetricKey(r, "trace_words")] = static_cast<double>(r.trace_words);
    metrics[MetricKey(r, "parser_errors")] = static_cast<double>(r.parser_errors);
    for (const ReplayVariantResult& v : r.replays) {
      metrics[MetricKey(r, ("replay." + v.name + ".predicted_seconds").c_str())] =
          static_cast<double>(v.prediction.PredictedCycles()) / kClockHz;
      metrics[MetricKey(r, ("replay." + v.name + ".predicted_utlb_misses").c_str())] =
          static_cast<double>(v.prediction.utlb_misses);
    }
  }
  // Single-pass sweep throughput: equivalent-replay references per second
  // (family points × refs / sweep wall), averaged over the experiments that
  // ran a sweep (wall-clock dependent, like sim.mips below — a single
  // global key).
  double sweep_mrefs_sum = 0;
  size_t sweep_experiments = 0;
  for (const ExperimentResult& r : results) {
    if (r.sweep_mrefs_per_sec > 0) {
      sweep_mrefs_sum += r.sweep_mrefs_per_sec;
      ++sweep_experiments;
    }
  }
  if (sweep_experiments > 0) {
    metrics["sweep.mrefs_per_sec"] = sweep_mrefs_sum / static_cast<double>(sweep_experiments);
  }
  // Simulator throughput: simulated instructions per wall-second of run
  // time, aggregated over the whole suite.  Wall-clock dependent, so it is
  // a single global key — the per-workload keys above stay deterministic.
  uint64_t sim_instructions = 0;
  uint64_t run_wall_us = 0;
  for (const ExperimentResult& r : results) {
    sim_instructions += r.simulated_instructions;
    run_wall_us += r.run_wall_us;
  }
  if (run_wall_us > 0) {
    metrics["sim.mips"] =
        static_cast<double>(sim_instructions) / (static_cast<double>(run_wall_us) * 1e-6) / 1e6;
  }
  return metrics;
}

void WriteMetricsObject(JsonWriter& writer, const std::map<std::string, double>& metrics) {
  writer.Key("metrics").BeginObject();
  for (const auto& [key, value] : metrics) {
    writer.KV(key, value);
  }
  writer.EndObject();
}

void WriteHeader(JsonWriter& writer, const std::string& tool, double scale) {
  writer.KV("schema", "wrlstats/1");
  writer.KV("tool", tool);
  if (scale > 0) {
    writer.KV("scale", scale);
  }
}

void WriteExperiment(JsonWriter& writer, const ExperimentResult& r,
                     const RunReportOptions& options) {
  writer.BeginObject();
  writer.KV("workload", r.workload);
  writer.KV("personality", PersonalityName(r.personality));
  writer.KV("exit_code", static_cast<uint64_t>(r.exit_code));

  writer.Key("measured").BeginObject();
  writer.KV("cycles", r.measured_cycles);
  writer.KV("seconds", r.MeasuredSeconds());
  writer.KV("utlb_misses", r.measured_utlb);
  writer.KV("idle_instructions", r.measured_idle_instructions);
  writer.KV("tlb_dropins", r.measured_tlbdropins);
  writer.KV("user_instructions", r.measured_user_instructions);
  writer.EndObject();

  writer.Key("predicted").BeginObject();
  writer.KV("cycles", r.prediction.PredictedCycles());
  writer.KV("seconds", r.PredictedSeconds());
  writer.KV("utlb_misses", r.prediction.utlb_misses);
  writer.KV("instructions", r.prediction.instructions);
  writer.KV("idle_instructions", r.prediction.idle_instructions);
  writer.KV("mem_stall_cycles", r.prediction.mem_stall_cycles);
  writer.KV("arith_stall_cycles", r.prediction.arith_stall_cycles);
  writer.KV("io_stall_cycles", r.prediction.io_stall_cycles);
  writer.KV("synthesized_refs", r.prediction.synthesized_refs);
  writer.KV("user_cpi", r.prediction.UserCpi());
  writer.KV("kernel_cpi", r.prediction.KernelCpi());
  writer.KV("wall_us", r.prediction_wall_us);
  writer.EndObject();

  writer.Key("delta").BeginObject();
  writer.KV("time_error_percent", r.TimeErrorPercent());
  double measured_utlb = static_cast<double>(r.measured_utlb);
  writer.KV("utlb_error_percent",
            measured_utlb == 0
                ? 0.0
                : 100.0 * (static_cast<double>(r.prediction.utlb_misses) - measured_utlb) /
                      measured_utlb);
  writer.KV("degenerate_prediction", r.DegeneratePrediction());
  writer.EndObject();

  writer.Key("trace").BeginObject();
  writer.KV("words", r.trace_words);
  writer.KV("parser_errors", r.parser_errors);
  writer.KV("analysis_switches", r.analysis_switches);
  writer.KV("traced_machine_instructions", r.traced_machine_instructions);
  writer.KV("parse_wall_us", r.parse_wall_us);
  writer.EndObject();

  if (!r.replays.empty()) {
    writer.Key("replays").BeginArray();
    for (const ReplayVariantResult& v : r.replays) {
      writer.BeginObject();
      writer.KV("name", v.name);
      writer.KV("predicted_cycles", v.prediction.PredictedCycles());
      writer.KV("predicted_seconds",
                static_cast<double>(v.prediction.PredictedCycles()) / kClockHz);
      writer.KV("predicted_utlb_misses", v.prediction.utlb_misses);
      writer.KV("instructions", v.prediction.instructions);
      writer.KV("mem_stall_cycles", v.prediction.mem_stall_cycles);
      writer.KV("refs", v.refs);
      writer.KV("wall_us", v.wall_us);
      writer.EndObject();
    }
    writer.EndArray();
  }
  if (r.sweep_ran) {
    // The single-pass sweep: every family point priced by one walk over
    // the reference stream (exact miss counts).
    writer.Key("sweep").BeginObject();
    writer.KV("refs", r.sweep.refs);
    writer.KV("synthesized_refs", r.sweep.synthesized_refs);
    writer.KV("family_points", static_cast<uint64_t>(r.sweep.family_points));
    writer.KV("wall_us", r.sweep.wall_us);
    if (r.sweep_mrefs_per_sec > 0) {
      writer.KV("mrefs_per_sec", r.sweep_mrefs_per_sec);
    }
    writer.Key("icache").BeginArray();
    for (const SweepCachePoint& p : r.sweep.icache) {
      writer.BeginObject();
      writer.KV("line_bytes", static_cast<uint64_t>(p.line_bytes));
      writer.KV("size_bytes", static_cast<uint64_t>(p.size_bytes));
      writer.KV("misses", p.misses);
      writer.EndObject();
    }
    writer.EndArray();
    writer.Key("dcache").BeginArray();
    for (const SweepCachePoint& p : r.sweep.dcache) {
      writer.BeginObject();
      writer.KV("line_bytes", static_cast<uint64_t>(p.line_bytes));
      writer.KV("size_bytes", static_cast<uint64_t>(p.size_bytes));
      writer.KV("misses", p.misses);
      writer.EndObject();
    }
    writer.EndArray();
    if (!r.sweep.tlb_lru_misses.empty()) {
      writer.Key("tlb").BeginObject();
      writer.KV("refs", r.sweep.tlb_refs);
      writer.KV("cold_misses", r.sweep.tlb_cold_misses);
      // The exact LRU capacity-miss curve at power-of-two capacities (the
      // full per-entry curve lives in SweepResult for programmatic use).
      writer.Key("lru_misses").BeginArray();
      for (size_t c = 1; c <= r.sweep.tlb_lru_misses.size(); c <<= 1) {
        writer.BeginObject();
        writer.KV("entries", static_cast<uint64_t>(c));
        writer.KV("misses", r.sweep.tlb_lru_misses[c - 1]);
        writer.EndObject();
      }
      writer.EndArray();
      writer.EndObject();
    }
    writer.EndObject();
  }

  if (r.profile.totals.refs > 0) {
    writer.KV("profile_wall_us", r.profile_wall_us);
    writer.Key("profile");
    r.profile.WriteJson(writer, options.profile_top);
  }

  writer.Key("counters");
  r.stats.WriteJson(writer);

  std::vector<std::string> warnings = r.Warnings();
  writer.Key("warnings").BeginArray();
  for (const std::string& warning : warnings) {
    writer.Value(warning);
  }
  writer.EndArray();
  writer.EndObject();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    throw Error(StrFormat("cannot open report file '%s' for writing", path.c_str()));
  }
  size_t written = std::fwrite(content.data(), 1, content.size(), file);
  bool ok = written == content.size() && std::fclose(file) == 0;
  if (!ok) {
    throw Error(StrFormat("short write to report file '%s'", path.c_str()));
  }
}

}  // namespace

std::string RunReportJson(const std::vector<ExperimentResult>& results,
                          const std::vector<TimelineEvent>& events,
                          const RunReportOptions& options) {
  JsonWriter writer;
  writer.BeginObject();
  WriteHeader(writer, options.tool, options.scale);
  writer.KV("clock_hz", kClockHz);

  WriteMetricsObject(writer, FlatMetrics(results));

  writer.Key("experiments").BeginArray();
  for (const ExperimentResult& r : results) {
    WriteExperiment(writer, r, options);
  }
  writer.EndArray();

  uint64_t total_errors = 0;
  for (const ExperimentResult& r : results) {
    total_errors += r.parser_errors;
  }
  writer.Key("totals").BeginObject();
  writer.KV("workloads", static_cast<uint64_t>(results.size()));
  writer.KV("parser_errors", total_errors);
  writer.EndObject();

  writer.Key("traceEvents").BeginArray();
  WriteChromeTraceEvents(writer, events);
  writer.EndArray();
  writer.EndObject();
  return writer.TakeString();
}

void WriteRunReport(const std::string& path, const std::vector<ExperimentResult>& results,
                    const std::vector<TimelineEvent>& events, const RunReportOptions& options) {
  WriteFile(path, RunReportJson(results, events, options));
}

void WriteMetricsReport(const std::string& path, const std::string& tool,
                        const std::map<std::string, double>& metrics,
                        const std::vector<TimelineEvent>& events, double scale) {
  JsonWriter writer;
  writer.BeginObject();
  WriteHeader(writer, tool, scale);
  WriteMetricsObject(writer, metrics);
  writer.Key("traceEvents").BeginArray();
  WriteChromeTraceEvents(writer, events);
  writer.EndArray();
  writer.EndObject();
  WriteFile(path, writer.TakeString());
}

size_t PrintResultWarnings(const ExperimentResult& result, std::FILE* out) {
  std::vector<std::string> warnings = result.Warnings();
  for (const std::string& warning : warnings) {
    std::fprintf(out, "*** %s ***\n", warning.c_str());
  }
  return warnings.size();
}

}  // namespace wrl
