#include "serve/sharded_rule_server.h"

#include <algorithm>
#include <utility>

#include "graph/partition.h"

namespace gpar {

namespace {

/// Folds one shard's request stats into the router's (the router counts
/// the request itself once, and latency end to end).
void Accumulate(ServeStats* into, const ServeStats& s) {
  into->cache_hits += s.cache_hits;
  into->cache_probes += s.cache_probes;
  into->centers_evaluated += s.centers_evaluated;
}

}  // namespace

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
  server->owner_ = std::move(parts.owner_of_center);
  for (Fragment& frag : parts.fragments) {
    server->slices_.push_back(std::make_unique<CacheSlice>(
        server->q_, std::move(frag.centers), options.shard_options));
  }
  server->router_pool_ = std::make_unique<ThreadPool>(options.num_shards);
  return server;
}

uint32_t ShardedRuleServer::OwnerOf(NodeId center) const {
  auto it = std::lower_bound(candidates_.begin(), candidates_.end(), center);
  if (it == candidates_.end() || *it != center) return num_shards();
  return owner_[static_cast<size_t>(it - candidates_.begin())];
}

void ShardedRuleServer::Gather(const Generation& st,
                               const SessionRequest& request,
                               const std::vector<uint32_t>& selected,
                               SessionReply* reply) {
  if (request.all_centers) {
    GatherAll(st, request, selected, reply);
  } else {
    GatherPoint(st, request, selected, reply);
  }
}

void ShardedRuleServer::Scatter(const Generation& st,
                                const std::vector<uint32_t>& selected,
                                std::vector<ShardCall>& calls,
                                SessionReply* reply) const {
  auto run = [&](uint32_t i) {
    ShardCall& call = calls[i];
    slices_[call.shard]->Answer(st, call.request, selected, &call.reply);
  };
  // A single call (the common point-lookup case under center affinity)
  // skips the router pool entirely and runs on the caller.
  const uint32_t n = static_cast<uint32_t>(calls.size());
  if (n == 1) {
    run(0);
  } else if (n > 1) {
    ParallelFor(*router_pool_, n, run);
  }
  for (const ShardCall& call : calls) {
    Accumulate(&reply->stats, call.reply.stats);
  }
}

void ShardedRuleServer::GatherPoint(const Generation& st,
                                    const SessionRequest& request,
                                    const std::vector<uint32_t>& selected,
                                    SessionReply* reply) const {
  // Scatter by center ownership; non-candidate centers match nothing and
  // never leave the router.
  std::vector<std::vector<size_t>> positions(num_shards());
  for (size_t i = 0; i < request.centers.size(); ++i) {
    const uint32_t owner = OwnerOf(request.centers[i]);
    if (owner < num_shards()) positions[owner].push_back(i);
  }
  std::vector<ShardCall> calls;
  for (uint32_t s = 0; s < num_shards(); ++s) {
    if (positions[s].empty()) continue;
    ShardCall& call = calls.emplace_back();
    call.shard = s;
    for (size_t i : positions[s]) {
      call.request.centers.push_back(request.centers[i]);
    }
    call.request.require_consequent = request.require_consequent;
  }
  Scatter(st, selected, calls, reply);

  reply->matched.assign(request.centers.size(), {});
  for (ShardCall& call : calls) {
    const std::vector<size_t>& pos = positions[call.shard];
    for (size_t j = 0; j < pos.size(); ++j) {
      reply->matched[pos[j]] = std::move(call.reply.matched[j]);
    }
  }
}

void ShardedRuleServer::GatherAll(const Generation& st,
                                  const SessionRequest& request,
                                  const std::vector<uint32_t>& selected,
                                  SessionReply* reply) const {
  std::vector<ShardCall> calls(num_shards());
  for (uint32_t s = 0; s < num_shards(); ++s) {
    calls[s].shard = s;
    calls[s].request.all_centers = true;
    calls[s].request.require_consequent = request.require_consequent;
  }
  Scatter(st, selected, calls, reply);

  // Gather: center ownership is disjoint, so the per-shard partial
  // supports sum to the global ones; confidences are computed from the
  // global sums (`ServeSession::Query`) — shard-local confidences are
  // meaningless.
  reply->matched.assign(candidates_.size(), {});
  reply->rule_evals.assign(st.rules->sigma.size(), {});
  for (ShardCall& call : calls) {
    SessionReply& sub = call.reply;
    const std::vector<NodeId>& owned = slices_[call.shard]->candidates();
    for (size_t j = 0; j < owned.size(); ++j) {
      auto it =
          std::lower_bound(candidates_.begin(), candidates_.end(), owned[j]);
      reply->matched[static_cast<size_t>(it - candidates_.begin())] =
          std::move(sub.matched[j]);
    }
    reply->supp_q += sub.supp_q;
    reply->supp_qbar += sub.supp_qbar;
    for (uint32_t ri : selected) {
      reply->rule_evals[ri].supp_r += sub.rule_evals[ri].supp_r;
      reply->rule_evals[ri].supp_qqbar += sub.rule_evals[ri].supp_qqbar;
    }
  }
}

}  // namespace gpar
