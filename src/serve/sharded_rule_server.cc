#include "serve/sharded_rule_server.h"

#include <utility>

#include "graph/partition.h"

namespace gpar {

Result<std::unique_ptr<ShardedRuleServer>> ShardedRuleServer::Create(
    Graph g, std::vector<RuleRecord> rules,
    const ShardedRuleServerOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  std::unique_ptr<ShardedRuleServer> server(new ShardedRuleServer());
  GPAR_RETURN_NOT_OK(server->Start(std::move(g), std::move(rules)));

  // Balance the shards by the |N_d| work of their owned centers at the
  // rule set's radius; matching itself runs on the shared parent graph.
  const std::shared_ptr<const Generation> st = server->AcquireGeneration();
  PartitionOptions popt;
  popt.num_fragments = options.num_shards;
  popt.d = st->rules->radius;
  GPAR_ASSIGN_OR_RETURN(
      Partitioning parts,
      PartitionGraph(*st->graph, server->candidates_, popt));
  server->SplitCandidates(std::move(parts.owner_of_center),
                          options.num_shards, options.shard_options);
  return server;
}

}  // namespace gpar
