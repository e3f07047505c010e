#include "harness/replay_engine.h"

#include <optional>

#include "support/error.h"
#include "trace/chunk_ring.h"

namespace wrl {

std::vector<ReplayEngine::Outcome> ReplayEngine::Run(const std::vector<Config>& configs) {
  WRL_CHECK_MSG(source_.log != nullptr, "ReplayEngine has no trace source");
  std::vector<Outcome> outcomes(configs.size());
  TeeBatchSink tee;
  for (size_t i = 0; i < configs.size(); ++i) {
    outcomes[i].name = configs[i].name;
    outcomes[i].sink = configs[i].make();
    tee.Add(outcomes[i].sink.get());
  }
  // Pipelined, with a sink to feed, the tee runs on an analysis thread
  // while this one decodes and parses ahead.  Declared after the sinks, so
  // unwinding joins the thread before any of them is destroyed.
  std::optional<RefBatchPipeline> analysis;
  if (PipelineEnabled() && !tee.empty()) {
    analysis.emplace(&tee);
  }
  TraceParser parser(source_.kernel_table);
  for (const auto& [pid, table] : source_.user_tables) {
    parser.SetUserTable(pid, table);
  }
  parser.SetInitialContext(source_.initial_context);
  parser.SetBatchSink(analysis ? static_cast<RefBatchSink*>(&*analysis) : &tee);
  source_.log->Replay([&parser](const uint32_t* words, size_t count) {
    parser.Feed(words, count);
  });
  parser.Finish();
  if (analysis) {
    analysis->Finish();
  }
  parser_stats_ = parser.stats();
  parser_errors_ = parser.errors();
  for (Outcome& out : outcomes) {
    out.refs = tee.refs();
    out.wall_us = tee.busy_us(out.sink.get());
  }
  return outcomes;
}

void ReplayEngine::RegisterParserStats(StatsRegistry& registry, const std::string& prefix) {
  BindParserStats(registry, prefix, &parser_stats_);
}

}  // namespace wrl
