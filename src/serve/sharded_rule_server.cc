#include "serve/sharded_rule_server.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/timer.h"
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

/// The retry policy's transience test: Unavailable is transient by
/// definition, IoError covers injected torn writes and flaky storage.
/// Everything else (InvalidArgument, Corruption, ...) propagates at once.
bool IsTransient(const Status& st) {
  return st.code() == StatusCode::kUnavailable ||
         st.code() == StatusCode::kIoError;
}

}  // namespace

ShardedRuleServer::ShardedRuleServer(const ShardedRuleServerOptions& options)
    : options_(options) {}

Result<std::unique_ptr<ShardedRuleServer>> ShardedRuleServer::Create(
    Graph g, std::vector<RuleRecord> rules,
    const ShardedRuleServerOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  std::unique_ptr<ShardedRuleServer> server(new ShardedRuleServer(options));
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

Status ShardedRuleServer::Gather(const Generation& st,
                                 const SessionRequest& request,
                                 const std::vector<uint32_t>& selected,
                                 SessionReply* reply) {
  if (request.all_centers) {
    GatherAll(st, request, selected, reply);
    return Status::OK();
  }
  return GatherPoint(st, request, selected, reply);
}

void ShardedRuleServer::Scatter(const Generation& st,
                                const SessionRequest& request,
                                const std::vector<uint32_t>& selected,
                                std::vector<ShardCall>& calls,
                                SessionReply* reply) const {
  const Timer timer;
  const double deadline_seconds = request.deadline_seconds;
  // One attempt: the simulated shard failure site — what degraded mode
  // and the per-request retries are tested against — then the answer.
  auto attempt = [&](ShardCall& call) -> Status {
    GPAR_FAILPOINT("shard.query");
    call.reply = SessionReply{};
    return slices_[call.shard]->Answer(st, call.request, selected,
                                       &call.reply);
  };
  // Transient failures back off (doubling, bounded by the deadline when
  // one is set) and retry up to `max_shard_retries` times.
  auto run = [&](uint32_t i) {
    ShardCall& call = calls[i];
    call.status = attempt(call);
    for (uint32_t n = 0; !call.status.ok() && IsTransient(call.status) &&
                         n < options_.max_shard_retries;
         ++n) {
      const uint64_t backoff_micros =
          static_cast<uint64_t>(options_.retry_backoff_micros) << n;
      if (deadline_seconds > 0 &&
          timer.Seconds() + static_cast<double>(backoff_micros) * 1e-6 >
              deadline_seconds) {
        // Honest semantics: the budget bounds how long we keep TRYING; the
        // in-flight call that just failed was never cancelled.
        call.status = Status::DeadlineExceeded(
            "retry budget exhausted after " + std::to_string(n) +
            " retries: " + call.status.message());
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_micros));
      ++call.retries;
      call.status = attempt(call);
    }
  };
  // A single call (the common point-lookup case under center affinity)
  // skips the router pool entirely and runs on the caller.
  const uint32_t n = static_cast<uint32_t>(calls.size());
  if (n == 1) {
    run(0);
  } else if (n > 1) {
    ParallelFor(*router_pool_, n, run);
  }

  ServeStats& stats = reply->stats;
  for (const ShardCall& call : calls) {
    stats.retries += call.retries;
    if (call.status.ok()) {
      Accumulate(&stats, call.reply.stats);
      continue;
    }
    // Degrade: this shard's centers keep their empty matched rows and
    // contribute nothing to the sums — exactly what the failed_shards
    // marker tells the caller to expect.
    reply->degraded = true;
    reply->failed_shards.push_back(call.shard);
    ++stats.shards_failed;
  }
}

Status ShardedRuleServer::GatherPoint(const Generation& st,
                                      const SessionRequest& request,
                                      const std::vector<uint32_t>& selected,
                                      SessionReply* reply) const {
  // Scatter by center ownership; non-candidate centers match nothing and
  // never leave the router.
  std::vector<std::vector<size_t>> positions(num_shards());
  for (size_t i = 0; i < request.centers.size(); ++i) {
    const NodeId c = request.centers[i];
    if (c >= st.graph->num_nodes()) {
      return Status::InvalidArgument("center id " + std::to_string(c) +
                                     " out of range");
    }
    const uint32_t owner = OwnerOf(c);
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
  Scatter(st, request, selected, calls, reply);

  reply->matched.assign(request.centers.size(), {});
  for (ShardCall& call : calls) {
    if (!call.status.ok()) continue;
    const std::vector<size_t>& pos = positions[call.shard];
    for (size_t j = 0; j < pos.size(); ++j) {
      reply->matched[pos[j]] = std::move(call.reply.matched[j]);
    }
  }
  return Status::OK();
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
  Scatter(st, request, selected, calls, reply);

  // Gather: center ownership is disjoint, so the per-shard partial
  // supports sum to the global ones; confidences are computed from the
  // global sums (`ServeSession::Query`) — shard-local confidences are
  // meaningless. Failed shards contribute nothing: the sums cover the
  // SURVIVING shards only (exact for survivors' centers, a lower bound
  // globally).
  reply->matched.assign(candidates_.size(), {});
  reply->rule_evals.assign(st.rules->sigma.size(), {});
  for (ShardCall& call : calls) {
    if (!call.status.ok()) continue;
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
