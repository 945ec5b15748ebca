#ifndef GPAR_SERVE_SHARDED_RULE_SERVER_H_
#define GPAR_SERVE_SHARDED_RULE_SERVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "parallel/thread_pool.h"
#include "rule/rule_snapshot.h"
#include "serve/rule_server.h"
#include "serve/serve_session.h"

namespace gpar {

/// Options for `ShardedRuleServer`.
struct ShardedRuleServerOptions {
  /// Number of shard servers. 1 is a valid (router + one shard)
  /// deployment, handy for A/B against a plain `RuleServer`. The router
  /// scatters requests and ships deltas on one thread per shard.
  uint32_t num_shards = 2;
  /// Per-shard serving options (worker threads, cache size, ...).
  RuleServerOptions shard_options;
  /// Bounded retry of TRANSIENT shard errors (Unavailable / IoError) on
  /// the query and delta-ship paths; other codes propagate immediately.
  uint32_t max_shard_retries = 2;
  /// Backoff before the first retry, doubling per attempt. The retry loop
  /// never sleeps past a request's `deadline_seconds`.
  uint32_t retry_backoff_micros = 200;
};

/// A sharded serving deployment: the graph is split once at load with the
/// `PartitionGraph` fragment builder (d = the rule set's locality radius,
/// so G_d of every owned center lies inside its shard's `GraphView` slice)
/// into `num_shards` `RuleServer` shards, each answering for its owned
/// centers only. This thin router scatters a request by center ownership,
/// gathers the matches, and — for `all_centers` requests — assembles the
/// global supports and confidences from the per-shard partial sums, which
/// is exact because center ownership is disjoint (the paper's summable
/// local supports, Section 5.1).
///
/// Deltas (inserts and deletes) are applied to the shared parent CSR once,
/// then shipped to every shard as one serialized `GraphDelta` batch
/// (`common/binary_io` framing — v2 frames when the batch deletes) rather
/// than k graph snapshots; each shard re-derives its own invalidation and
/// view extension from the batch. Deletions shrink neighborhoods, so a
/// shard's view may become a strict superset of its owned centers' N_d
/// balls — still exact for view-restricted matching (see
/// `RuleServer::ApplyShardDelta`).
///
/// Shard failures degrade rather than fail. A shard that keeps failing a
/// query is left out of the reply, which sets `SessionReply::degraded`
/// (owned-center supports of the survivors stay exact). A shard that
/// misses a delta is left lagging, excluded from queries until a journal
/// or pending-tail resync catches it up, and the `ApplyDelta` succeeds.
///
/// The write path (`ApplyDelta`, journal, replay, checkpoint, maintenance)
/// is `ServeSession`'s; this router supplies its publish step — resync
/// lagging shards, ship the frame, record acks and the pending tail, then
/// run the maintenance pass on the parent graph and push changed rules. A
/// failed pass fails the `ApplyDelta` (as on a single `RuleServer`), after
/// the frame is published and the sequence has advanced.
///
/// Thread-safety: as `ServeSession` — any number of concurrent `Query`
/// calls, concurrent with at most the internal serialization of
/// `ApplyDelta`. Shards swap snapshots independently, so a query racing a
/// delta may observe it on some shards and not others (per-shard snapshot
/// consistency; the delta becomes globally visible when `ApplyDelta`
/// returns).
class ShardedRuleServer
    : public SnapshotSession<ShardedRuleServer, ShardedRuleServerOptions> {
 public:
  /// Partitions `g` (see the class comment) and builds one shard per
  /// fragment.
  static Result<std::unique_ptr<ShardedRuleServer>> Create(
      Graph g, std::vector<RuleRecord> rules,
      const ShardedRuleServerOptions& options = {});

  ShardedRuleServer(const ShardedRuleServer&) = delete;
  ShardedRuleServer& operator=(const ShardedRuleServer&) = delete;

  // ---- ServeSession ----

  Result<SessionReply> Query(const SessionRequest& request) override;
  std::shared_ptr<const Graph> graph_snapshot() const override;
  std::vector<RuleRecord> rules() const override GPAR_EXCLUDES(graph_mu_);

  // ---- Introspection ----

  uint32_t num_shards() const noexcept {
    return static_cast<uint32_t>(shards_.size());
  }
  const RuleServer& shard(uint32_t i) const noexcept { return *shards_[i]; }
  /// Shard owning `center`, or `num_shards()` when it is not a candidate.
  uint32_t OwnerOf(NodeId center) const;
  /// Sequence number stamped on the next shipped delta batch minus one.
  uint64_t delta_sequence() const GPAR_EXCLUDES(graph_mu_);
  /// Shards currently behind `delta_sequence()` (they answer no queries —
  /// the router degrades around them — until a resync catches them up).
  size_t lagging_shards() const GPAR_EXCLUDES(graph_mu_);

  /// Replays the frames a lagging shard missed — from the attached
  /// journal when possible, else from the in-memory pending tail — merged
  /// into one catch-up batch shipped with the current parent graph. Safe
  /// because a lagging shard serves nothing until it is current again, so
  /// it never exposes an intermediate state. Called automatically before
  /// every frame ships; public so operators (and tests) can heal a
  /// deployment without waiting for the next delta. Returns the first
  /// resync failure, with the still-lagging shards left lagging.
  Status ResyncLaggingShards() GPAR_EXCLUDES(writer_mu_);

 private:
  explicit ShardedRuleServer(const ShardedRuleServerOptions& options);

  /// Runs `fn(0)` .. `fn(n - 1)` on the router pool, or on the caller when
  /// n == 1.
  void RunOnShards(uint32_t n, const std::function<void(uint32_t)>& fn) const;
  /// One shard's part of a scattered request.
  struct ShardCall {
    uint32_t shard = 0;
    SessionRequest request;
    Status status;
    SessionReply reply;
    uint64_t retries = 0;
  };
  /// Runs `calls` under the retry policy — on the caller when there is
  /// just one, else on the router pool. A lagging shard fails fast. Each
  /// failed call degrades `reply` (its shard joins `failed_shards`).
  /// Retries and the successful calls' shard stats are summed into
  /// `reply->stats`; callers merge the replies of the calls left ok.
  void Scatter(std::vector<ShardCall>& calls, double deadline_seconds,
               const Timer& timer, SessionReply* reply) const;
  /// Point lookups: scatters the centers by ownership, gathers `matched`.
  Status GatherPoint(const SessionRequest& request,
                     const std::vector<uint32_t>& selected, const Timer& timer,
                     SessionReply* reply) const;
  /// `all_centers`: asks every shard, sums the partial supports into a
  /// reply sized for the `num_rules` the request pinned.
  Status GatherAll(const SessionRequest& request,
                   const std::vector<uint32_t>& selected, size_t num_rules,
                   const Timer& timer, SessionReply* reply) const;
  /// The publish step of `ApplyDelta` (see the class comment). The frame
  /// is published even when a ship fails; the failed shards are left
  /// lagging.
  Status PublishDelta(DeltaCommit* commit) override GPAR_REQUIRES(writer_mu_);
  /// When `rules` differ from the served set: publishes them
  /// router-side, sets `ds->rules_refreshed`, and pushes them to every shard
  /// (summing the shards' `rules_carried` and dropped memberships into `ds`).
  /// Push failures leave those shards on the previous set (the next
  /// refresh retries — the compare is against the router's records); the
  /// first one is returned. A rule refresh is atomic per shard but briefly
  /// heterogeneous across shards, like deltas.
  Status PublishRules(std::vector<RuleRecord> rules, DeltaStats* ds) override
      GPAR_REQUIRES(writer_mu_);
  /// Rejects a maintained radius above the partition radius the fragments
  /// were cut for — deeper rules could not be matched shard-locally.
  Status AdmitRadius(uint32_t d) override GPAR_REQUIRES(writer_mu_);
  Status ResyncLaggingShardsLocked() GPAR_REQUIRES(writer_mu_);
  /// Runs `call` under the retry policy: transient failures back off
  /// (doubling, bounded by `deadline_seconds` on `timer` when positive)
  /// and retry up to `max_shard_retries` times, counting into `retries`.
  Status CallWithRetry(const std::function<Status()>& call,
                       double deadline_seconds, const Timer& timer,
                       uint64_t* retries) const;
  /// Pins the current record set (shared, immutable) for one request, so a
  /// racing maintenance refresh can never resize it mid-merge.
  std::shared_ptr<const std::vector<RuleRecord>> AcquireRecords() const
      GPAR_EXCLUDES(graph_mu_);

  ShardedRuleServerOptions options_;
  /// The served rule set, RCU-style: replaced wholesale by a maintenance
  /// refresh, never mutated in place.
  std::shared_ptr<const std::vector<RuleRecord>> records_
      GPAR_GUARDED_BY(graph_mu_);
  uint32_t partition_d_ = 0;     ///< radius the fragments were cut for
  std::vector<uint32_t> owner_;  ///< parallel to candidates_
  /// Fixed for the server's lifetime (deltas mutate edges, never the node
  /// set), so point-query validation needn't take `graph_mu_`.
  NodeId num_nodes_ = 0;
  std::vector<std::unique_ptr<RuleServer>> shards_;
  /// Scatter/ship pool — deliberately separate from the shards' matching
  /// pools: a router task blocks on a shard's `Query`, and blocking waits
  /// must never share a pool with the tasks they wait for.
  std::unique_ptr<ThreadPool> router_pool_;

  mutable Mutex graph_mu_;
  std::shared_ptr<const Graph> graph_ GPAR_GUARDED_BY(graph_mu_);
  /// The published sequence: the last frame made visible here.
  uint64_t delta_sequence_ GPAR_GUARDED_BY(graph_mu_) = 0;
  /// Per-shard last acknowledged batch sequence. A shard is healthy iff
  /// its entry equals `delta_sequence_`; queries route around the rest.
  std::vector<uint64_t> shard_acked_ GPAR_GUARDED_BY(graph_mu_);
  /// Recent published frames kept in memory for journal-free resync (and
  /// for frames a compaction already dropped from the journal). Pruned
  /// once every shard has acked; capped — a shard that lags past the cap
  /// with no journal coverage stays degraded until the process restarts.
  std::deque<GraphDelta> pending_ GPAR_GUARDED_BY(writer_mu_);
};

}  // namespace gpar

#endif  // GPAR_SERVE_SHARDED_RULE_SERVER_H_
