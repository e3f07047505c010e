// wrltrace: the wrltrace/1 archive tool — record, inspect, verify, dump,
// replay, and diff durable trace captures (src/trace/trace_archive.h).
//
// The capture-once / analyze-many leverage, across *processes*: `record`
// runs one paper workload through the full experiment harness with the
// archive tee active, and any later invocation — on another machine, in
// another CI job — rebuilds the capturing system from the archive's
// identity metadata and replays the identical reference stream.
//
// Subcommands:
//   record  --workload NAME --out FILE [--scale F] [--personality P]
//           [--json PATH]
//       Run the experiment, tee the capture to FILE, and write the
//       analysis-counter document (--json) that `replay --expect` checks
//       bit-for-bit.  F is a number in [0, 1024].
//   info    FILE [--json PATH]
//       Header, identity metadata, chunk directory summary, compression,
//       and any degraded-capture diagnostics.
//   verify  FILE
//       Full integrity sweep: every framing CRC, every payload CRC, every
//       payload bounds-decoded, then the capture parsed through the §4.3
//       trace-parser defenses of a freshly rebuilt system.  Exit 0 only
//       when everything is clean.
//   cat     FILE [--chunk I] [--limit N]
//       Decoded trace words as hex, one per line.
//   replay  FILE [--json PATH] [--expect PATH]
//       Rebuild the capturing system from metadata, stream the archive
//       through the ReplayEngine, and (with --expect) require every
//       analysis counter to match a `record --json` document bit-for-bit.
//       The summary line and the document's `timing` give the replay's
//       wall time and the primary simulator's busy time within it.
//   diff    A B
//       Byte-level (chunk framing + payload CRCs) and reference-level
//       (decoded word streams) comparison; exit 0 only when identical.
//
// Exit codes: 0 ok/identical, 1 difference or integrity finding, 2 usage
// or hard error (wrong magic, unreadable file, unknown workload).
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/replay_engine.h"
#include "kernel/system_build.h"
#include "stats/events.h"
#include "support/error.h"
#include "support/file.h"
#include "support/json.h"
#include "support/strings.h"
#include "trace/trace_archive.h"
#include "workloads/workloads.h"

using namespace wrl;

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: wrltrace record --workload NAME --out FILE [--scale F]\n"
      "                       [--personality ultrix|mach] [--json PATH]\n"
      "       wrltrace info FILE [--json PATH]\n"
      "       wrltrace verify FILE\n"
      "       wrltrace cat FILE [--chunk I] [--limit N]\n"
      "       wrltrace replay FILE [--json PATH] [--expect PATH]\n"
      "       wrltrace diff A B\n");
}

// Where a replay's wall time went: host microseconds around
// ReplayEngine::Run, and the primary simulator's busy time inside it.
struct ReplayTiming {
  uint64_t replay_wall_us = 0;
  uint64_t primary_busy_us = 0;
};

// The analysis-counter document shared by `record` and `replay`: every
// parser.* and predicted.* instrument from the run's registry snapshot.
// Bit-identity between a live capture and its archived replay is asserted
// over exactly this object.  A replay adds its `timing` beside it, which no
// comparison reads.
void WriteAnalysisJson(const std::string& path, const std::string& mode,
                       const std::string& workload, Personality personality,
                       const std::string& archive_path, double predicted_cycles,
                       const StatsSnapshot& stats, const ReplayTiming* timing = nullptr) {
  JsonWriter writer;
  writer.BeginObject();
  writer.KV("schema", "wrltrace-analysis/1");
  writer.KV("tool", "wrltrace");
  writer.KV("mode", mode);
  writer.KV("workload", workload);
  writer.KV("personality", PersonalityName(personality));
  writer.KV("archive", archive_path);
  writer.KV("predicted_cycles", predicted_cycles);
  writer.Key("counters");
  writer.BeginObject();
  for (const auto& [name, value] : stats.values()) {
    if (name.rfind("parser.", 0) != 0 && name.rfind("predicted.", 0) != 0) {
      continue;
    }
    if (value.kind == StatValue::Kind::kCounter) {
      writer.KV(name, value.counter);
    } else if (value.kind == StatValue::Kind::kGauge) {
      writer.KV(name, value.gauge);
    }
    // Histograms are shape, not analysis output; skipped.
  }
  writer.EndObject();
  if (timing != nullptr) {
    writer.Key("timing");
    writer.BeginObject();
    writer.KV("replay_wall_us", timing->replay_wall_us);
    writer.KV("primary_busy_us", timing->primary_busy_us);
    writer.EndObject();
  }
  writer.EndObject();
  WriteTextFile(path, writer.TakeString() + "\n");
}

// The capturing system, rebuilt deterministically from archive metadata: the
// measured instance supplies the page map and original binaries, the traced
// instance the instrumentation tables — the exact inputs the live analysis
// used, built by the harness's own set-up rules, so the replay is
// bit-identical by construction.
struct RebuiltSystems {
  WorkloadSpec workload;
  ExperimentOptions options;
  std::unique_ptr<SystemInstance> measured;
  std::unique_ptr<SystemInstance> traced;
  PredictorConfig pconfig;
};

RebuiltSystems RebuildFromMeta(const ArchiveReader& archive) {
  RebuiltSystems sys;
  const std::string workload_name = archive.MetaValue("workload");
  if (workload_name.empty()) {
    throw Error("wrltrace: archive has no 'workload' metadata — cannot rebuild the "
                "capturing system (was it recorded by the harness?)");
  }
  double scale = 1;
  sys.options = ArchivedExperimentOptions(archive, &scale);
  sys.workload = PaperWorkload(workload_name, scale);
  sys.measured = BuildSystem(ExperimentSystemConfig(sys.workload, sys.options, false));
  sys.traced = BuildSystem(ExperimentSystemConfig(sys.workload, sys.options, true));
  sys.pconfig = ExperimentPredictorConfig(*sys.measured, sys.options);
  return sys;
}

ReplaySource MakeSource(const ArchiveReader& archive, const RebuiltSystems& sys) {
  ReplaySource source;
  source.log = &archive;
  source.kernel_table = &sys.traced->kernel_table();
  for (const SystemInstance::UserSpace& space : sys.traced->user_spaces()) {
    source.user_tables.emplace_back(space.pid, space.table);
  }
  return source;
}

void PrintDiagnostics(const ArchiveReader& archive) {
  for (const std::string& line : archive.diagnostics()) {
    std::fprintf(stderr, "wrltrace: %s\n", line.c_str());
  }
}

// ---- record ---------------------------------------------------------------

int CmdRecord(int argc, char** argv) {
  std::string workload_name;
  std::string out_path;
  std::string json_path;
  double scale = 1.0;
  Personality personality = Personality::kUltrix;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload_name = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--scale" && i + 1 < argc) {
      if (!ParseWorkloadScale(argv[++i], scale)) {
        Usage();
        return 2;
      }
    } else if (arg == "--personality" && i + 1 < argc) {
      personality = PersonalityFromName(argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      Usage();
      return 2;
    }
  }
  if (workload_name.empty() || out_path.empty()) {
    Usage();
    return 2;
  }

  WorkloadSpec workload = PaperWorkload(workload_name, scale);
  ExperimentOptions options;
  options.personality = personality;
  options.archive_path = out_path;
  options.archive_meta.emplace_back("scale", StrFormat("%.17g", scale));
  ExperimentResult result = RunExperiment(workload, options);

  std::printf("wrltrace: recorded %s (%s, scale %g) -> %s\n", workload.name.c_str(),
              PersonalityName(personality), scale, out_path.c_str());
  std::printf("  %llu trace words, %llu chunks, %.0f bytes on disk (%.2fx compression)\n",
              static_cast<unsigned long long>(result.stats.CounterValue("archive.words")),
              static_cast<unsigned long long>(
                  static_cast<uint64_t>(result.stats.GaugeValue("archive.chunks"))),
              static_cast<double>(result.stats.CounterValue("archive.file_bytes")),
              result.stats.GaugeValue("archive.compression_ratio"));
  for (const std::string& warning : result.Warnings()) {
    std::fprintf(stderr, "wrltrace: %s\n", warning.c_str());
  }
  if (!json_path.empty()) {
    WriteAnalysisJson(json_path, "record", workload.name, personality, out_path,
                      result.prediction.PredictedCycles(), result.stats);
  }
  return result.parser_errors > 0 ? 1 : 0;
}

// ---- info -----------------------------------------------------------------

int CmdInfo(int argc, char** argv) {
  std::string path;
  std::string json_path;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (path.empty()) {
      path = arg;
    } else {
      Usage();
      return 2;
    }
  }
  if (path.empty()) {
    Usage();
    return 2;
  }
  ArchiveReader archive(path);
  std::printf("%s: wrltrace/%u, packed payloads%s\n", path.c_str(), kArchiveVersion,
              archive.degraded() ? " [DEGRADED: recovered by scan]" : "");
  std::printf("  %zu chunks, %llu words, %llu file bytes, %llu payload bytes "
              "(%.2fx compression)\n",
              archive.chunk_count(), static_cast<unsigned long long>(archive.word_count()),
              static_cast<unsigned long long>(archive.file_bytes()),
              static_cast<unsigned long long>(archive.payload_bytes()),
              archive.CompressionRatio());
  for (const auto& [key, value] : archive.meta()) {
    std::printf("  meta %s = %s\n", key.c_str(), value.c_str());
  }
  PrintDiagnostics(archive);
  if (!json_path.empty()) {
    JsonWriter writer;
    writer.BeginObject();
    writer.KV("schema", "wrltrace-info/1");
    writer.KV("path", path);
    writer.KV("version", kArchiveVersion);
    writer.KV("packed", true);  // The reader accepts no other payloads.
    writer.KV("degraded", archive.degraded());
    writer.KV("chunks", static_cast<uint64_t>(archive.chunk_count()));
    writer.KV("words", archive.word_count());
    writer.KV("file_bytes", archive.file_bytes());
    writer.KV("payload_bytes", archive.payload_bytes());
    writer.KV("compression_ratio", archive.CompressionRatio());
    writer.Key("meta");
    writer.BeginObject();
    for (const auto& [key, value] : archive.meta()) {
      writer.KV(key, value);
    }
    writer.EndObject();
    writer.Key("diagnostics");
    writer.BeginArray();
    for (const std::string& line : archive.diagnostics()) {
      writer.Value(line);
    }
    writer.EndArray();
    writer.EndObject();
    WriteTextFile(json_path, writer.TakeString() + "\n");
  }
  return 0;
}

// ---- verify ---------------------------------------------------------------

int CmdVerify(int argc, char** argv) {
  if (argc != 1) {
    Usage();
    return 2;
  }
  const std::string path = argv[0];
  ArchiveReader archive(path);
  std::vector<std::string> findings;
  archive.Verify(&findings);
  for (const std::string& finding : findings) {
    std::fprintf(stderr, "wrltrace: %s: %s\n", path.c_str(), finding.c_str());
  }

  // Integrity past the CRCs: the decoded stream must survive the trace
  // parser's §4.3 defenses (key-table bounds, marker protocol, context
  // tracking) against a freshly rebuilt system.
  RebuiltSystems sys = RebuildFromMeta(archive);
  ReplayEngine engine(MakeSource(archive, sys));
  engine.Run({});
  const uint64_t parse_errors = engine.parser_stats().validation_errors;
  for (const std::string& error : engine.parser_errors()) {
    std::fprintf(stderr, "wrltrace: %s: parser: %s\n", path.c_str(), error.c_str());
  }

  const bool clean = findings.empty() && parse_errors == 0;
  std::printf("%s: %zu chunks, %llu words, %llu refs: %s\n", path.c_str(),
              archive.chunk_count(), static_cast<unsigned long long>(archive.word_count()),
              static_cast<unsigned long long>(engine.parser_stats().refs),
              clean ? "OK" : "FAILED");
  return clean ? 0 : 1;
}

// ---- cat ------------------------------------------------------------------

int CmdCat(int argc, char** argv) {
  std::string path;
  std::optional<size_t> chunk;
  uint64_t limit = 0;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--chunk" && i + 1 < argc) {
      size_t index = 0;
      if (!ParseDecimal(argv[++i], index)) {
        Usage();
        return 2;
      }
      chunk = index;
    } else if (arg == "--limit" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], limit)) {
        Usage();
        return 2;
      }
    } else if (path.empty()) {
      path = arg;
    } else {
      Usage();
      return 2;
    }
  }
  if (path.empty()) {
    Usage();
    return 2;
  }
  ArchiveReader archive(path);
  PrintDiagnostics(archive);
  if (chunk && *chunk >= archive.chunk_count()) {
    std::fprintf(stderr, "wrltrace: --chunk %zu out of range (archive has %zu chunks)\n", *chunk,
                 archive.chunk_count());
    Usage();
    return 2;
  }
  uint64_t printed = 0;
  std::vector<uint32_t> buffer;
  const size_t end = chunk ? *chunk + 1 : archive.chunk_count();
  for (size_t i = chunk.value_or(0); i < end; ++i) {
    archive.DecodeChunk(i, buffer);
    for (uint32_t word : buffer) {
      std::printf("0x%08x\n", word);
      if (limit != 0 && ++printed >= limit) {
        return 0;
      }
    }
  }
  return 0;
}

// ---- replay ---------------------------------------------------------------

int CmdReplay(int argc, char** argv) {
  std::string path;
  std::string json_path;
  std::string expect_path;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--expect" && i + 1 < argc) {
      expect_path = argv[++i];
    } else if (path.empty()) {
      path = arg;
    } else {
      Usage();
      return 2;
    }
  }
  if (path.empty()) {
    Usage();
    return 2;
  }

  ArchiveReader archive(path);
  PrintDiagnostics(archive);
  RebuiltSystems sys = RebuildFromMeta(archive);

  ReplayEngine engine(MakeSource(archive, sys));
  const uint64_t start_us = EventRecorder::NowUs();
  std::vector<ReplayEngine::Outcome> outcomes = engine.Run(
      {{"primary", [&sys] { return ExperimentSimulator(*sys.measured, sys.pconfig); }}});
  const ReplayTiming timing{EventRecorder::NowUs() - start_us, outcomes[0].wall_us};
  auto* simulator = static_cast<TraceDrivenSimulator*>(outcomes[0].sink.get());
  Prediction prediction = simulator->Finish();

  StatsRegistry registry;
  engine.RegisterParserStats(registry, "parser.");
  simulator->RegisterStats(registry, "predicted.");
  StatsSnapshot stats = registry.Snapshot();

  std::printf("wrltrace: replayed %s: %llu words -> %llu refs, predicted %.0f cycles, "
              "%llu us wall, primary simulator busy %llu us\n",
              path.c_str(), static_cast<unsigned long long>(archive.word_count()),
              static_cast<unsigned long long>(engine.parser_stats().refs),
              prediction.PredictedCycles(), static_cast<unsigned long long>(timing.replay_wall_us),
              static_cast<unsigned long long>(timing.primary_busy_us));
  if (engine.parser_stats().validation_errors > 0) {
    std::fprintf(stderr, "wrltrace: %llu parser validation error(s) during replay\n",
                 static_cast<unsigned long long>(engine.parser_stats().validation_errors));
  }
  if (!json_path.empty()) {
    WriteAnalysisJson(json_path, "replay", sys.workload.name, sys.options.personality, path,
                      prediction.PredictedCycles(), stats, &timing);
  }

  if (!expect_path.empty()) {
    // Bit-identity gate: every analysis counter of the live run must be
    // reproduced exactly by the archived replay — same keys, same values.
    JsonValue expect = ParseJson(ReadTextFile(expect_path));
    const JsonValue& expected = expect.At("counters");
    size_t mismatches = 0;
    size_t compared = 0;
    for (const auto& [name, value] : expected.object) {
      ++compared;
      const StatValue* actual = stats.Find(name);
      if (actual == nullptr) {
        std::fprintf(stderr, "wrltrace: expect: counter '%s' missing from replay\n",
                     name.c_str());
        ++mismatches;
        continue;
      }
      const double actual_value = actual->kind == StatValue::Kind::kCounter
                                      ? static_cast<double>(actual->counter)
                                      : actual->gauge;
      if (actual_value != value.number) {
        std::fprintf(stderr, "wrltrace: expect: %s: replay %.17g != live %.17g\n",
                     name.c_str(), actual_value, value.number);
        ++mismatches;
      }
    }
    for (const auto& [name, value] : stats.values()) {
      (void)value;
      if ((name.rfind("parser.", 0) == 0 || name.rfind("predicted.", 0) == 0) &&
          !expected.Has(name)) {
        std::fprintf(stderr, "wrltrace: expect: replay counter '%s' absent from %s\n",
                     name.c_str(), expect_path.c_str());
        ++mismatches;
      }
    }
    const double expected_cycles = expect.At("predicted_cycles").number;
    if (expected_cycles != prediction.PredictedCycles()) {
      std::fprintf(stderr, "wrltrace: expect: predicted_cycles: replay %.17g != live %.17g\n",
                   prediction.PredictedCycles(), expected_cycles);
      ++mismatches;
    }
    if (mismatches > 0) {
      std::fprintf(stderr, "wrltrace: replay does NOT match %s (%zu mismatch(es))\n",
                   expect_path.c_str(), mismatches);
      return 1;
    }
    std::printf("wrltrace: replay matches %s bit-for-bit (%zu counters)\n",
                expect_path.c_str(), compared);
  }
  return 0;
}

// ---- diff -----------------------------------------------------------------

int CmdDiff(int argc, char** argv) {
  if (argc != 2) {
    Usage();
    return 2;
  }
  ArchiveReader a(argv[0]);
  ArchiveReader b(argv[1]);
  PrintDiagnostics(a);
  PrintDiagnostics(b);
  size_t differences = 0;
  auto report = [&differences](const std::string& line) {
    std::fprintf(stderr, "wrltrace: diff: %s\n", line.c_str());
    ++differences;
  };

  if (a.meta() != b.meta()) {
    report("identity metadata differs");
    for (const auto& [key, value] : a.meta()) {
      const std::string other = b.MetaValue(key, "<absent>");
      if (other != value) {
        report("  meta " + key + ": " + value + " != " + other);
      }
    }
    for (const auto& [key, value] : b.meta()) {
      if (a.MetaValue(key, "<absent>") == "<absent>") {
        report("  meta " + key + ": <absent> != " + value);
      }
    }
  }
  if (a.chunk_count() != b.chunk_count()) {
    report(StrFormat("chunk count %zu != %zu", a.chunk_count(), b.chunk_count()));
  }
  if (a.word_count() != b.word_count()) {
    report(StrFormat("word count %llu != %llu",
                     static_cast<unsigned long long>(a.word_count()),
                     static_cast<unsigned long long>(b.word_count())));
  }

  // Reference-level comparison: the decoded word streams, chunk by chunk.
  // (Payload CRCs already pin the byte level — identical words from both
  // decoders plus matching framing means byte-identical payloads.)
  const size_t chunks = std::min(a.chunk_count(), b.chunk_count());
  std::vector<uint32_t> wa;
  std::vector<uint32_t> wb;
  size_t word_diffs = 0;
  for (size_t i = 0; i < chunks; ++i) {
    a.DecodeChunk(i, wa);
    b.DecodeChunk(i, wb);
    if (wa.size() != wb.size()) {
      report(StrFormat("chunk %zu: %zu words != %zu words", i, wa.size(), wb.size()));
      continue;
    }
    for (size_t w = 0; w < wa.size(); ++w) {
      if (wa[w] != wb[w]) {
        if (++word_diffs <= 8) {
          report(StrFormat("chunk %zu word %zu: 0x%08x != 0x%08x", i, w, wa[w], wb[w]));
        }
      }
    }
  }
  if (word_diffs > 8) {
    report(StrFormat("... %zu differing word(s) total", word_diffs));
  }

  if (differences == 0) {
    std::printf("wrltrace: %s and %s are identical (%zu chunks, %llu words, "
                "byte-identical payloads)\n",
                argv[0], argv[1], a.chunk_count(),
                static_cast<unsigned long long>(a.word_count()));
    return 0;
  }
  return 1;
}

int Run(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "record") {
    return CmdRecord(argc - 2, argv + 2);
  }
  if (cmd == "info") {
    return CmdInfo(argc - 2, argv + 2);
  }
  if (cmd == "verify") {
    return CmdVerify(argc - 2, argv + 2);
  }
  if (cmd == "cat") {
    return CmdCat(argc - 2, argv + 2);
  }
  if (cmd == "replay") {
    return CmdReplay(argc - 2, argv + 2);
  }
  if (cmd == "diff") {
    return CmdDiff(argc - 2, argv + 2);
  }
  Usage();
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wrltrace: %s\n", e.what());
    return 2;
  }
}
