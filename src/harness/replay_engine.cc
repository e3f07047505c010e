#include "harness/replay_engine.h"

#include "support/error.h"

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
  TraceParser parser(source_.kernel_table);
  for (const auto& [pid, table] : source_.user_tables) {
    parser.SetUserTable(pid, table);
  }
  parser.SetInitialContext(source_.initial_context);
  parser.SetBatchSink(&tee);
  source_.log->Replay([&parser](const uint32_t* words, size_t count) {
    parser.Feed(words, count);
  });
  parser.Finish();
  parser_stats_ = parser.stats();
  parser_errors_ = parser.errors();
  for (Outcome& out : outcomes) {
    out.refs = tee.refs();
    out.wall_us = tee.busy_us(out.sink.get());
  }
  return outcomes;
}

void ReplayEngine::RegisterParserStats(StatsRegistry& registry, const std::string& prefix) {
  registry.AddCounter(prefix + "words", &parser_stats_.words);
  registry.AddCounter(prefix + "blocks", &parser_stats_.blocks);
  registry.AddCounter(prefix + "refs", &parser_stats_.refs);
  registry.AddCounter(prefix + "ifetches", &parser_stats_.ifetches);
  registry.AddCounter(prefix + "loads", &parser_stats_.loads);
  registry.AddCounter(prefix + "stores", &parser_stats_.stores);
  registry.AddCounter(prefix + "kernel_ifetches", &parser_stats_.kernel_ifetches);
  registry.AddCounter(prefix + "user_ifetches", &parser_stats_.user_ifetches);
  registry.AddCounter(prefix + "idle_instructions", &parser_stats_.idle_instructions);
  registry.AddCounter(prefix + "markers", &parser_stats_.markers);
  registry.AddCounter(prefix + "validation_errors", &parser_stats_.validation_errors);
}

}  // namespace wrl
