#include "serve/sharded_rule_server.h"

#include <algorithm>
#include <chrono>
#include <thread>
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
  auto records =
      std::make_shared<const std::vector<RuleRecord>>(std::move(rules));
  std::vector<Gpar> sigma;
  sigma.reserve(records->size());
  for (const RuleRecord& r : *records) sigma.push_back(r.rule);
  GPAR_ASSIGN_OR_RETURN(SigmaInfo info, ValidateSigma(sigma));
  server->q_ = info.q;

  auto parent = std::make_shared<const Graph>(std::move(g));
  server->interner_ = parent->labels_ptr();
  {
    auto span = parent->nodes_with_label(info.q.x_label);
    server->candidates_.assign(span.begin(), span.end());
  }

  // Balance the shards by the |N_d| work of their owned centers at the
  // rule set's radius; matching itself runs on the shared parent graph.
  PartitionOptions popt;
  popt.num_fragments = options.num_shards;
  popt.d = std::max<uint32_t>(info.d, 1);
  GPAR_ASSIGN_OR_RETURN(
      Partitioning parts,
      PartitionGraph(*parent, server->candidates_, popt));
  server->owner_ = std::move(parts.owner_of_center);

  server->shards_.reserve(parts.fragments.size());
  for (Fragment& frag : parts.fragments) {
    GPAR_ASSIGN_OR_RETURN(
        std::unique_ptr<RuleServer> shard,
        RuleServer::CreateShard(parent, std::move(frag.centers), *records,
                                options.shard_options));
    server->shards_.push_back(std::move(shard));
  }
  server->router_pool_ = std::make_unique<ThreadPool>(options.num_shards);
  server->num_nodes_ = parent->num_nodes();
  {
    // Create runs single-threaded, but `graph_` is guarded and the lock is
    // uncontended — take it rather than poke an analysis hole.
    MutexLock lock(server->graph_mu_);
    server->graph_ = std::move(parent);
    server->records_ = std::move(records);
    server->shard_acked_.assign(server->shards_.size(), 0);
  }
  return server;
}

std::vector<RuleRecord> ShardedRuleServer::rules() const {
  return *AcquireRecords();
}

std::shared_ptr<const std::vector<RuleRecord>>
ShardedRuleServer::AcquireRecords() const {
  MutexLock lock(graph_mu_);
  return records_;
}

uint32_t ShardedRuleServer::OwnerOf(NodeId center) const {
  auto it = std::lower_bound(candidates_.begin(), candidates_.end(), center);
  if (it == candidates_.end() || *it != center) return num_shards();
  return owner_[static_cast<size_t>(it - candidates_.begin())];
}

uint64_t ShardedRuleServer::delta_sequence() const {
  MutexLock lock(graph_mu_);
  return delta_sequence_;
}

size_t ShardedRuleServer::lagging_shards() const {
  MutexLock lock(graph_mu_);
  size_t lagging = 0;
  for (uint64_t acked : shard_acked_) {
    if (acked != delta_sequence_) ++lagging;
  }
  return lagging;
}

std::shared_ptr<const Graph> ShardedRuleServer::graph_snapshot() const {
  MutexLock lock(graph_mu_);
  return graph_;
}

Result<SessionReply> ShardedRuleServer::Query(const SessionRequest& request) {
  Timer timer;
  // Pin the record set once: the selection is normalized against it and
  // the all-centers reply is sized from it, so a racing refresh can never
  // hand the two different sets.
  const std::shared_ptr<const std::vector<RuleRecord>> records =
      AcquireRecords();
  GPAR_ASSIGN_OR_RETURN(std::vector<uint32_t> selected,
                        ValidateRequest(request, records->size()));
  SessionReply reply;
  reply.stats.requests = 1;
  GPAR_RETURN_NOT_OK(request.all_centers
                         ? GatherAll(request, selected, records->size(),
                                     timer, &reply)
                         : GatherPoint(request, selected, timer, &reply));
  AssembleEntities(request, selected,
                   request.all_centers ? candidates_ : request.centers,
                   &reply);
  reply.stats.latency_seconds = timer.Seconds();
  lifetime_.Record(reply.stats);
  return reply;
}

Status ShardedRuleServer::CallWithRetry(const std::function<Status()>& call,
                                        double deadline_seconds,
                                        const Timer& timer,
                                        uint64_t* retries) const {
  Status st = call();
  for (uint32_t attempt = 0;
       !st.ok() && IsTransient(st) && attempt < options_.max_shard_retries;
       ++attempt) {
    const uint64_t backoff_micros =
        static_cast<uint64_t>(options_.retry_backoff_micros) << attempt;
    if (deadline_seconds > 0 &&
        timer.Seconds() + static_cast<double>(backoff_micros) * 1e-6 >
            deadline_seconds) {
      // Honest semantics: the budget bounds how long we keep TRYING; the
      // in-flight call that just failed was never cancelled.
      return Status::DeadlineExceeded(
          "retry budget exhausted after " + std::to_string(attempt) +
          " retries: " + st.message());
    }
    std::this_thread::sleep_for(std::chrono::microseconds(backoff_micros));
    ++*retries;
    st = call();
  }
  return st;
}

void ShardedRuleServer::RunOnShards(
    uint32_t n, const std::function<void(uint32_t)>& fn) const {
  // A single call (the common point-lookup case under center affinity)
  // skips the router pool entirely and runs on the caller.
  if (n == 1) {
    fn(0);
  } else if (n > 1) {
    ParallelFor(*router_pool_, n, fn);
  }
}

void ShardedRuleServer::Scatter(std::vector<ShardCall>& calls,
                                double deadline_seconds, const Timer& timer,
                                SessionReply* reply) const {
  // Health snapshot: a shard behind the delta sequence would answer from
  // a stale graph, so it fails fast here and the reply degrades around it.
  std::vector<char> healthy(num_shards(), 0);
  {
    MutexLock lock(graph_mu_);
    for (size_t s = 0; s < healthy.size(); ++s) {
      healthy[s] = shard_acked_[s] == delta_sequence_ ? 1 : 0;
    }
  }
  auto run = [&](uint32_t i) {
    ShardCall& call = calls[i];
    if (healthy[call.shard] == 0) {
      call.status = Status::Unavailable(
          "shard " + std::to_string(call.shard) +
          " is lagging behind the delta sequence");
      return;
    }
    call.status = CallWithRetry(
        [&]() {
          auto r = shards_[call.shard]->Query(call.request);
          if (!r.ok()) return r.status();
          call.reply = std::move(r).value();
          return Status::OK();
        },
        deadline_seconds, timer, &call.retries);
  };
  RunOnShards(static_cast<uint32_t>(calls.size()), run);

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

Status ShardedRuleServer::GatherPoint(const SessionRequest& request,
                                      const std::vector<uint32_t>& selected,
                                      const Timer& timer,
                                      SessionReply* reply) const {
  // Scatter by center ownership; non-candidate centers match nothing and
  // never leave the router.
  std::vector<std::vector<size_t>> positions(num_shards());
  for (size_t i = 0; i < request.centers.size(); ++i) {
    const NodeId c = request.centers[i];
    if (c >= num_nodes_) {
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
    call.request.rules = selected;
    call.request.require_consequent = request.require_consequent;
  }
  Scatter(calls, request.deadline_seconds, timer, reply);

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

Status ShardedRuleServer::GatherAll(const SessionRequest& request,
                                    const std::vector<uint32_t>& selected,
                                    size_t num_rules, const Timer& timer,
                                    SessionReply* reply) const {
  std::vector<ShardCall> calls(num_shards());
  for (uint32_t s = 0; s < num_shards(); ++s) {
    calls[s].shard = s;
    calls[s].request.all_centers = true;
    calls[s].request.rules = selected;
    calls[s].request.eta = request.eta;
    calls[s].request.require_consequent = request.require_consequent;
  }
  Scatter(calls, request.deadline_seconds, timer, reply);

  // Gather: center ownership is disjoint, so the per-shard partial
  // supports sum to the global ones; confidences are computed from the
  // global sums (AssembleEntities) — shard-local confidences are
  // meaningless. Failed shards contribute nothing: the sums cover the
  // SURVIVING shards only (exact for survivors' centers, a lower bound
  // globally).
  reply->matched.assign(candidates_.size(), {});
  reply->rule_evals.assign(num_rules, {});
  for (ShardCall& call : calls) {
    if (!call.status.ok()) continue;
    SessionReply& sub = call.reply;
    const std::vector<NodeId>& owned = shards_[call.shard]->candidates();
    for (size_t j = 0; j < owned.size(); ++j) {
      auto it =
          std::lower_bound(candidates_.begin(), candidates_.end(), owned[j]);
      reply->matched[static_cast<size_t>(it - candidates_.begin())] =
          std::move(sub.matched[j]);
    }
    reply->supp_q += sub.supp_q;
    reply->supp_qbar += sub.supp_qbar;
    for (uint32_t ri : selected) {
      // Bounds guard: a maintenance refresh racing this request can leave
      // a shard briefly on a smaller rule set than the router (the
      // per-shard snapshot consistency caveat) — never index across it.
      if (ri >= sub.rule_evals.size()) continue;
      reply->rule_evals[ri].supp_r += sub.rule_evals[ri].supp_r;
      reply->rule_evals[ri].supp_qqbar += sub.rule_evals[ri].supp_qqbar;
    }
  }
  return Status::OK();
}

Status ShardedRuleServer::PublishDelta(DeltaCommit* commit) {
  // Heal first: a lagging shard must not receive this frame on top of a
  // gap (it would miss the intermediate invalidations). Shards that are
  // still lagging afterwards are left out of the ship and stay degraded.
  (void)ResyncLaggingShardsLocked();

  const uint32_t k = num_shards();
  const uint64_t sequence = commit->frame.sequence;
  std::vector<char> ship_to(k, 0);
  {
    MutexLock lock(graph_mu_);
    for (uint32_t s = 0; s < k; ++s) {
      ship_to[s] = shard_acked_[s] == delta_sequence_ ? 1 : 0;
    }
  }
  // The parent CSR is patched once (the writer did); every current shard
  // gets one serialized batch of the applied mutations — bytes on the wire
  // instead of k graph snapshots. A replayed floor marker ships nothing:
  // it only carries the current shards to its sequence.
  std::vector<Status> statuses(k, Status::OK());
  std::vector<DeltaStats> shard_stats(k);
  if (commit->changes_graph()) {
    const std::string bytes = commit->frame.Serialize();
    std::vector<uint64_t> retries(k, 0);
    auto ship = [&](uint32_t s) {
      if (ship_to[s] == 0) return;
      statuses[s] = CallWithRetry(
          [&]() {
            auto r = shards_[s]->ApplyShardDelta(commit->new_graph, bytes);
            if (!r.ok()) return r.status();
            shard_stats[s] = std::move(r).value();
            return Status::OK();
          },
          /*deadline_seconds=*/0, Timer(), &retries[s]);
    };
    RunOnShards(k, ship);
    ServeStats ship_stats;
    for (uint64_t r : retries) ship_stats.retries += r;
    lifetime_.Record(ship_stats);
  }

  DeltaStats& ds = commit->stats;
  for (uint32_t s = 0; s < k; ++s) {
    if (ship_to[s] == 0 || !statuses[s].ok()) continue;
    const DeltaStats& st = shard_stats[s];
    ds.memberships_invalidated += st.memberships_invalidated;
    ds.qclass_invalidated += st.qclass_invalidated;
    ds.wire_bytes += st.wire_bytes;
  }
  {
    MutexLock lock(graph_mu_);
    graph_ = commit->new_graph;
    delta_sequence_ = sequence;
    for (uint32_t s = 0; s < k; ++s) {
      if (ship_to[s] != 0 && statuses[s].ok()) shard_acked_[s] = sequence;
    }
    for (uint64_t acked : shard_acked_) {
      if (acked != sequence) ++ds.shards_lagging;
    }
  }
  commit->published = true;
  if (!commit->changes_graph()) return Status::OK();

  // Maintain-on-ApplyDelta: the pass runs on the parent graph after the
  // committed ship; a changed top-k is pushed to the shards and
  // republished router-side. A failed push degrades: a shard that missed
  // it keeps the previous set until the next refresh. A failed pass is
  // reported once the frame is kept for resync below — the frame itself
  // is published either way.
  std::vector<RuleRecord> top_k;
  const Result<bool> maintained = MaintainPass(*commit, &top_k);
  if (maintained.ok() && *maintained) {
    (void)PublishRules(std::move(top_k), &ds);
  }

  // Keep the frame for pending-tail resync until every shard acked it,
  // bounded: a shard lagging past the cap resyncs from the journal or not
  // at all.
  pending_.push_back(std::move(commit->frame));
  {
    MutexLock lock(graph_mu_);
    uint64_t min_acked = delta_sequence_;
    for (uint64_t acked : shard_acked_) min_acked = std::min(min_acked, acked);
    while (!pending_.empty() && pending_.front().sequence <= min_acked) {
      pending_.pop_front();
    }
  }
  constexpr size_t kMaxPendingFrames = 4096;
  while (pending_.size() > kMaxPendingFrames) pending_.pop_front();
  return maintained.status();
}

Status ShardedRuleServer::PublishRules(std::vector<RuleRecord> rules,
                                       DeltaStats* ds) {
  {
    MutexLock lock(graph_mu_);
    if (rules == *records_) return Status::OK();
  }
  // Publish router-side FIRST: selections normalize against the router's
  // set, and a shard still on the old set rejects out-of-range indices
  // (the merge also bounds-checks) instead of answering from the wrong
  // rule.
  auto shared =
      std::make_shared<const std::vector<RuleRecord>>(std::move(rules));
  {
    MutexLock lock(graph_mu_);
    records_ = shared;
  }
  ds->rules_refreshed = 1;
  Status first_failure = Status::OK();
  for (auto& shard : shards_) {
    DeltaStats shard_ds;
    Status st = shard->UpdateRules(*shared, &shard_ds);
    if (!st.ok() && first_failure.ok()) first_failure = std::move(st);
    ds->rules_carried += shard_ds.rules_carried;
    ds->memberships_invalidated += shard_ds.memberships_invalidated;
  }
  return first_failure;
}

Status ShardedRuleServer::ResyncLaggingShards() {
  MutexLock writer(writer_mu_);
  return ResyncLaggingShardsLocked();
}

Status ShardedRuleServer::ResyncLaggingShardsLocked() {
  const uint32_t k = num_shards();
  uint64_t cur = 0;
  std::vector<uint64_t> acked;
  std::shared_ptr<const Graph> g;
  {
    MutexLock lock(graph_mu_);
    cur = delta_sequence_;
    acked = shard_acked_;
    g = graph_;
  }
  if (std::all_of(acked.begin(), acked.end(),
                  [cur](uint64_t a) { return a >= cur; })) {
    return Status::OK();
  }
  // The journal (durable, survives restarts) is the preferred source of
  // missed frames; read it once for every lagging shard. An unreadable
  // journal leaves only the in-memory pending tail.
  std::vector<GraphDelta> journal_frames;
  if (journal() != nullptr) {
    auto all = DeltaJournal::ReadAll(journal()->path());
    if (all.ok()) journal_frames = std::move(all).value();
  }
  Status first_failure = Status::OK();
  auto note = [&first_failure](Status st) {
    if (first_failure.ok()) first_failure = std::move(st);
  };
  for (uint32_t s = 0; s < k; ++s) {
    if (acked[s] >= cur) continue;
    // Collect the frames this shard missed — exactly (acked, cur], every
    // sequence accounted for. The journal is preferred; the in-memory
    // pending tail covers frames a compaction already dropped. Floor
    // markers are empty stand-ins for compacted frames, not the frames
    // themselves, so they never count as coverage.
    const uint64_t needed = cur - acked[s];
    std::vector<const GraphDelta*> missed;
    auto covered = [&]() {
      return missed.size() == needed &&
             missed.front()->sequence == acked[s] + 1 &&
             missed.back()->sequence == cur;
    };
    for (const GraphDelta& f : journal_frames) {
      if (f.sequence > acked[s] && f.sequence <= cur &&
          !(f.inserts.empty() && f.deletes.empty())) {
        missed.push_back(&f);
      }
    }
    if (missed.empty() || !covered()) {
      missed.clear();
      for (const GraphDelta& f : pending_) {
        if (f.sequence > acked[s] && f.sequence <= cur) missed.push_back(&f);
      }
    }
    if (missed.empty() || !covered()) {
      note(Status::Unavailable(
          "shard " + std::to_string(s) + " cannot be resynced: frames (" +
          std::to_string(acked[s]) + ", " + std::to_string(cur) +
          "] are no longer available"));
      continue;
    }
    // One merged catch-up batch at the current sequence, shipped with the
    // current parent graph. Safe: the shard served nothing while lagging,
    // so no intermediate state was ever observable, and the endpoint
    // union (an edge inserted then deleted in the window contributes
    // both) is exactly what its invalidation walk needs.
    GraphDelta merged;
    merged.sequence = cur;
    for (const GraphDelta* f : missed) {
      merged.inserts.insert(merged.inserts.end(), f->inserts.begin(),
                            f->inserts.end());
      merged.deletes.insert(merged.deletes.end(), f->deletes.begin(),
                            f->deletes.end());
    }
    CollectLabelDefs(*interner_, &merged);
    auto r = shards_[s]->ApplyShardDelta(g, merged.Serialize());
    if (r.ok()) {
      MutexLock lock(graph_mu_);
      shard_acked_[s] = std::max(shard_acked_[s], cur);
    } else {
      note(r.status());
    }
  }
  return first_failure;
}

}  // namespace gpar
