#include "serve/rule_server.h"

#include <utility>

namespace gpar {

Result<std::unique_ptr<RuleServer>> RuleServer::Create(
    Graph g, std::vector<RuleRecord> rules, const RuleServerOptions& options) {
  std::unique_ptr<RuleServer> server(new RuleServer());
  GPAR_RETURN_NOT_OK(server->Start(std::move(g), std::move(rules)));
  server->SplitCandidates(
      std::vector<uint32_t>(server->candidates_.size(), 0), 1, options);
  return server;
}

size_t RuleServer::plans_prepared() const {
  return AcquireGeneration()->plan_store->patterns_planned();
}

}  // namespace gpar
