#include "serve/rule_server.h"

#include <utility>

namespace gpar {

Result<std::unique_ptr<RuleServer>> RuleServer::Create(
    Graph g, std::vector<RuleRecord> rules, const RuleServerOptions& options) {
  std::unique_ptr<RuleServer> server(new RuleServer());
  GPAR_RETURN_NOT_OK(server->Start(std::move(g), std::move(rules)));
  server->slices_.push_back(
      std::make_unique<CacheSlice>(server->q_, server->candidates_, options));
  return server;
}

void RuleServer::Gather(const Generation& st, const SessionRequest& request,
                        const std::vector<uint32_t>& selected,
                        SessionReply* reply) {
  slices_.front()->Answer(st, request, selected, reply);
}

size_t RuleServer::plans_prepared() const {
  return AcquireGeneration()->plan_store->patterns_planned();
}

}  // namespace gpar
