// Streaming replay of a captured trace: the analysis side of
// capture-once / analyze-many, in the same shape as a live experiment.
//
// A ReplayEngine re-parses a capture (an in-memory TraceLog or an on-disk
// wrltrace/1 archive) with the capturing system's lookup tables and hands
// every batch to one TeeBatchSink holding each analysis configuration's
// sink: one parser, one tee, exactly what RunExperiment runs behind the
// traced machine.  A K-config study costs one traced run + one parse per
// Run() call.  Nothing is materialized: each batch is consumed by every
// sink and its buffer reused, so replay memory is O(chunk), not O(capture).
// With the pipeline on (PipelineEnabled(), so WRL_PIPELINE=0 turns it off)
// the tee runs on an analysis thread behind a ring of reference batches
// (trace/chunk_ring.h), while the caller decodes and parses ahead.
//
// Bit-identity invariant: the parser sees the captured word sequence in the
// captured chunking, so every counter and predicted number a replayed
// configuration produces matches the live run bit for bit.
#ifndef WRLTRACE_HARNESS_REPLAY_ENGINE_H_
#define WRLTRACE_HARNESS_REPLAY_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "stats/stats.h"
#include "trace/parser.h"
#include "trace/trace_log.h"

namespace wrl {

// Everything a replay needs to re-parse a captured trace: the chunk source
// (an in-memory TraceLog or an on-disk ArchiveReader — the engine does not
// care which) and the per-address-space lookup tables of the *capturing*
// system (which must stay alive for the engine's lifetime).
struct ReplaySource {
  const TraceChunkSource* log = nullptr;
  const TraceInfoTable* kernel_table = nullptr;
  std::vector<std::pair<uint8_t, const TraceInfoTable*>> user_tables;
  uint8_t initial_context = kKernelPid;
};

class ReplayEngine {
 public:
  explicit ReplayEngine(ReplaySource source) : source_(std::move(source)) {}

  // One analysis configuration.  `make` builds the config's sink before the
  // parse starts; the engine keeps the returned sink alive in the Outcome so
  // callers can downcast and harvest results.
  struct Config {
    std::string name;
    std::function<std::unique_ptr<RefBatchSink>()> make;
  };

  struct Outcome {
    std::string name;
    std::unique_ptr<RefBatchSink> sink;
    uint64_t refs = 0;     // References delivered to the sink.
    uint64_t wall_us = 0;  // Host wall time the sink spent consuming them.
  };

  // Streams the source once (TraceChunkSource::Replay), feeding every
  // config's sink through one tee.  Each call parses again.  Outcomes are
  // in config order.  Throws whatever the source, a config's make, or a
  // sink throws, with every thread it started joined.
  std::vector<Outcome> Run(const std::vector<Config>& configs);

  // The last Run()'s parse.
  const TraceParserStats& parser_stats() const { return parser_stats_; }
  const std::vector<std::string>& parser_errors() const { return parser_errors_; }
  // Binds the parser counters (same names the live path registers) under
  // `prefix`; the engine must outlive snapshots, which read the last Run().
  void RegisterParserStats(StatsRegistry& registry, const std::string& prefix = "parser.");

  // Remain only for the wrlbench benchmark, which still calls them: Run()
  // does the parse, so Parse() does nothing; no stream is materialized, so
  // refs() is always empty; and every source decodes serially, so
  // Options::decode_workers is ignored.
  struct Options {
    unsigned decode_workers = 1;
  };
  std::vector<Outcome> Run(const std::vector<Config>& configs, const Options& /*ignored*/) {
    return Run(configs);
  }
  void Parse(unsigned /*decode_workers*/ = 1) {}
  std::vector<TraceRef> refs() const { return {}; }

 private:
  ReplaySource source_;
  TraceParserStats parser_stats_;
  std::vector<std::string> parser_errors_;
};

}  // namespace wrl

#endif  // WRLTRACE_HARNESS_REPLAY_ENGINE_H_
