// Capture-once / replay-many analysis (the ROADMAP's "many scenarios, as
// fast as the hardware allows" leverage for the analysis side).
//
// A configuration sweep used to cost one traced machine run *per
// configuration*, regenerating a byte-identical trace each time.  The
// ReplayEngine inverts that: the captured TraceLog is parsed exactly once
// (one pass of table lookups and block reconstruction), the reconstructed
// reference stream is materialized as a dense array, and each analysis
// configuration replays that array in kRefBatchCapacity-sized batches —
// fanned out across a worker pool (the PR 2 pattern: workers claim the next
// config, results land in config order, per-config EventRecorder timelines
// are absorbed deterministically).  A K-config sweep therefore costs one
// traced run + one parse + K cheap replays.
//
// Bit-identity invariant: the materialized stream is exactly the sequence a
// live parser delivers, so every counter and predicted number a replayed
// configuration produces matches the live path bit-for-bit, at any
// Options::batch_refs.
#ifndef WRLTRACE_HARNESS_REPLAY_ENGINE_H_
#define WRLTRACE_HARNESS_REPLAY_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "stats/events.h"
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

  // Parses the log once and materializes the reference stream.  Idempotent;
  // Run() calls it implicitly.  `decode_workers` > 1 decodes the log's
  // independently coded chunks on that many worker threads while the parser
  // consumes them strictly in capture order (TraceLog::ReplayParallel) —
  // the parse sees the identical word sequence either way.  The dense
  // stream is reserved exactly once, from the parser's own ifetch+load+
  // store counters, so materialization never grows by reallocation; its
  // byte cost is exported as the `replay.materialized_bytes` metric.
  void Parse(unsigned decode_workers = 1);

  const TraceParserStats& parser_stats() const { return parser_stats_; }
  const std::vector<std::string>& parser_errors() const { return parser_errors_; }
  const std::vector<TraceRef>& refs() const { return refs_; }

  // One analysis configuration of the fan-out.  `make` builds the config's
  // sink chain and runs on the replay worker thread; the engine keeps the
  // returned sink alive in the Outcome so callers can downcast and harvest
  // results.
  struct Config {
    std::string name;
    std::function<std::unique_ptr<RefBatchSink>()> make;
  };

  struct Outcome {
    std::string name;
    std::unique_ptr<RefBatchSink> sink;
    uint64_t refs = 0;
    uint64_t wall_us = 0;  // Host wall time of this config's replay.
    std::vector<TimelineEvent> timeline;
  };

  struct Options {
    unsigned jobs = 1;
    // Worker threads for the chunk-parallel TraceLog decode feeding the
    // single parse (only the first Run/Parse pays this; 1 = serial).
    unsigned decode_workers = 1;
    size_t batch_refs = kRefBatchCapacity;
    // When set, per-config timelines are absorbed here in config order
    // after the pool drains (deterministic regardless of scheduling).
    EventRecorder* events = nullptr;
  };

  // Replays the materialized stream through every config.  Outcomes are in
  // config order.  Throws whatever a config's make/sink throws.
  std::vector<Outcome> Run(const std::vector<Config>& configs, const Options& options);
  std::vector<Outcome> Run(const std::vector<Config>& configs);  // Default options.

  // Aggregate throughput of the last Run(): references delivered across all
  // configs per wall-second of the whole fan-out.
  double mrefs_per_sec() const { return last_mrefs_per_sec_; }

  // Binds replay-side metrics (materialized refs, last-run throughput) into
  // `registry` under `prefix`; the engine must outlive snapshots.
  void RegisterStats(StatsRegistry& registry, const std::string& prefix = "replay.");
  // Binds the single parse's parser counters (same names the live path
  // registers) under `prefix`.
  void RegisterParserStats(StatsRegistry& registry, const std::string& prefix = "parser.");

 private:
  ReplaySource source_;
  bool parsed_ = false;
  std::vector<TraceRef> refs_;
  TraceParserStats parser_stats_;
  std::vector<std::string> parser_errors_;
  uint64_t materialized_bytes_ = 0;  // Dense-stream footprint of the capture.
  uint64_t parse_wall_us_ = 0;
  uint64_t last_run_refs_ = 0;
  uint64_t last_run_wall_us_ = 0;
  uint64_t configs_run_ = 0;
  double last_mrefs_per_sec_ = 0;
};

}  // namespace wrl

#endif  // WRLTRACE_HARNESS_REPLAY_ENGINE_H_
