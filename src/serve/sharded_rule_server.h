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
  /// deployment, handy for A/B against a plain `RuleServer`.
  uint32_t num_shards = 2;
  /// Threads the router uses to scatter a request across shards and to
  /// ship deltas; 0 sizes it to `num_shards`.
  uint32_t router_threads = 0;
  /// Per-shard serving options (worker threads, cache size, ...).
  RuleServerOptions shard_options;
  /// Bounded retry of TRANSIENT shard errors (Unavailable / IoError) on
  /// the query and delta-ship paths; other codes propagate immediately.
  uint32_t max_shard_retries = 2;
  /// Backoff before the first retry, doubling per attempt. The retry loop
  /// never sleeps past a request's `deadline_seconds`.
  uint32_t retry_backoff_micros = 200;
  /// When a shard keeps failing: answer from the surviving shards with
  /// `SessionReply::degraded` set (owned-center supports of survivors stay
  /// exact) instead of failing the request; a shard that misses a delta is
  /// likewise left lagging — excluded from queries until a journal/pending
  /// resync catches it up — rather than failing the `ApplyDelta`. False
  /// restores strict all-or-nothing semantics.
  bool degrade_on_shard_failure = true;
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
/// Thread-safety: as `ServeSession` — any number of concurrent `Query`
/// calls, concurrent with at most the internal serialization of
/// `ApplyDelta`. Shards swap snapshots independently, so a query racing a
/// delta may observe it on some shards and not others (per-shard snapshot
/// consistency; the delta becomes globally visible when `ApplyDelta`
/// returns).
class ShardedRuleServer : public ServeSession {
 public:
  /// Loads a snapshot pair (see `RuleServer::Load`) and partitions it.
  static Result<std::unique_ptr<ShardedRuleServer>> Load(
      const std::string& graph_snapshot_path,
      const std::string& rules_snapshot_path,
      const ShardedRuleServerOptions& options = {});

  static Result<std::unique_ptr<ShardedRuleServer>> Create(
      Graph g, std::vector<RuleRecord> rules,
      const ShardedRuleServerOptions& options = {});

  /// Crash recovery: loads the snapshot pair, then attaches the journal at
  /// `journal_path` — replaying its valid frame prefix through the normal
  /// ship path, so the rebuilt deployment is result-identical to one that
  /// applied those deltas and never crashed.
  static Result<std::unique_ptr<ShardedRuleServer>> Recover(
      const std::string& graph_snapshot_path,
      const std::string& rules_snapshot_path,
      const std::string& journal_path,
      const ShardedRuleServerOptions& options = {},
      const DeltaJournalOptions& journal_options = {},
      JournalReplayStats* replay = nullptr);

  ShardedRuleServer(const ShardedRuleServer&) = delete;
  ShardedRuleServer& operator=(const ShardedRuleServer&) = delete;

  // ---- ServeSession ----

  Result<SessionReply> Query(const SessionRequest& request) override;
  Result<DeltaStats> ApplyDelta(const GraphDelta& delta) override;
  Status AttachJournal(const std::string& path,
                       const DeltaJournalOptions& options = {},
                       JournalReplayStats* replay = nullptr) override;
  Status Checkpoint(const std::string& graph_snapshot_path) override;
  std::shared_ptr<const Graph> graph_snapshot() const override;
  /// The currently served rule set. The reference stays valid until the
  /// next maintenance refresh publishes a different set; callers racing
  /// refreshes should copy (or hold `AcquireRecords`-style snapshots —
  /// queries do internally).
  const std::vector<RuleRecord>& rules() const override
      GPAR_EXCLUDES(graph_mu_);
  const std::vector<NodeId>& candidates() const override {
    return candidates_;
  }
  LabelId InternLabel(std::string_view name) override {
    return interner_->Intern(name);
  }
  /// Router-level lifetime stats (one request per `Query`; per-shard stats
  /// live on the shards — see `shard()`).
  ServeStats lifetime_stats() const override;

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
  bool journal_attached() const GPAR_EXCLUDES(writer_mu_);

  /// Replays the frames a lagging shard missed — from the attached
  /// journal when possible, else from the in-memory pending tail — merged
  /// into one catch-up batch shipped with the current parent graph. Safe
  /// because a lagging shard serves nothing until it is current again, so
  /// it never exposes an intermediate state. Called automatically at the
  /// top of every `ApplyDelta`; public so operators (and tests) can heal a
  /// deployment without waiting for the next delta. Returns the first
  /// resync failure, with the still-lagging shards left lagging.
  Status ResyncLaggingShards() GPAR_EXCLUDES(writer_mu_);

  // ---- Incremental rule maintenance ----

  /// Switches the deployment into maintain-on-ApplyDelta mode: seeds a
  /// `RuleMaintainer` on the PARENT graph (shards only see fragment views)
  /// and serves its top-k from here on. Every later delta runs a
  /// maintenance pass after the ship and, when the top-k changed, pushes
  /// the refreshed set to every healthy shard (`RuleServer::UpdateRules`)
  /// and republishes the router's records. The maintained radius
  /// `options.mine.d` must not exceed the partition radius the fragments
  /// were cut for — deeper rules could not be matched shard-locally.
  /// A rule refresh is atomic per shard but briefly heterogeneous across
  /// shards, like deltas (per-shard snapshot consistency).
  Status EnableMaintenance(const MaintainOptions& options)
      GPAR_EXCLUDES(writer_mu_);
  bool maintenance_enabled() const GPAR_EXCLUDES(writer_mu_);
  /// Accumulated maintenance-pass stats (zero when maintenance is off).
  MaintainStats maintain_stats() const GPAR_EXCLUDES(writer_mu_);

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
  /// failed call degrades `reply` (its shard joins `failed_shards`) or, in
  /// strict mode, fails the request. Retries and the successful calls'
  /// shard stats are summed into `reply->stats`; callers merge the replies
  /// of the calls left ok.
  Status Scatter(std::vector<ShardCall>& calls, double deadline_seconds,
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
  /// The body of `ApplyDelta`. `journal` is false on the replay path;
  /// `replay_sequence`, when nonzero, pins the batch's sequence to a
  /// journaled frame's instead of stamping the next one.
  Result<DeltaStats> ApplyDeltaLocked(const GraphDelta& delta, bool journal,
                                      uint64_t replay_sequence)
      GPAR_REQUIRES(writer_mu_);
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
  /// Runs the maintenance pass for one applied batch, then `PublishRules`
  /// its top-k.
  Status MaintainAfterShip(const Graph& old_graph,
                           std::shared_ptr<const Graph> new_graph,
                           const GraphDelta& wire, DeltaStats* ds)
      GPAR_REQUIRES(writer_mu_);
  /// When `refreshed` differs from the served set: publishes it
  /// router-side, sets `ds->rules_refreshed`, and pushes it to every shard.
  /// Push failures leave those shards on the previous set (the next
  /// refresh retries — the compare is against the router's records); the
  /// first one is returned.
  Status PublishRules(std::vector<RuleRecord> refreshed, DeltaStats* ds)
      GPAR_REQUIRES(writer_mu_);

  ShardedRuleServerOptions options_;
  std::shared_ptr<Interner> interner_;
  /// The served rule set, RCU-style: replaced wholesale by a maintenance
  /// refresh, never mutated in place.
  std::shared_ptr<const std::vector<RuleRecord>> records_
      GPAR_GUARDED_BY(graph_mu_);
  Predicate q_{};           ///< the rule set's predicate q(x, y)
  uint32_t partition_d_ = 0;  ///< radius the fragments were cut for
  std::vector<NodeId> candidates_;  ///< all candidate centers, sorted
  std::vector<uint32_t> owner_;     ///< parallel to candidates_
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
  /// Serializes ApplyDelta / AttachJournal / Checkpoint / resync.
  mutable Mutex writer_mu_;
  uint64_t delta_sequence_ GPAR_GUARDED_BY(graph_mu_) = 0;
  /// Per-shard last acknowledged batch sequence. A shard is healthy iff
  /// its entry equals `delta_sequence_`; queries route around the rest.
  std::vector<uint64_t> shard_acked_ GPAR_GUARDED_BY(graph_mu_);
  /// Attach-journal mode: batches are appended here (applied mutations,
  /// stamped sequence) BEFORE being shipped to any shard.
  std::unique_ptr<DeltaJournal> journal_ GPAR_GUARDED_BY(writer_mu_);
  /// Recent shipped batches kept in memory for journal-free resync (and
  /// for frames a compaction already dropped from the journal). Pruned
  /// once every shard has acked; capped — a shard that lags past the cap
  /// with no journal coverage stays degraded until the process restarts.
  struct PendingFrame {
    uint64_t sequence = 0;
    GraphDelta delta;
  };
  std::deque<PendingFrame> pending_ GPAR_GUARDED_BY(writer_mu_);
  /// Maintain-on-ApplyDelta mode: router-level maintainer on the parent
  /// graph; passes run under the writer lock, after the ship.
  std::unique_ptr<RuleMaintainer> maintainer_ GPAR_GUARDED_BY(writer_mu_);

  LifetimeStats lifetime_;
};

}  // namespace gpar

#endif  // GPAR_SERVE_SHARDED_RULE_SERVER_H_
