#ifndef GPAR_SERVE_SERVE_SESSION_H_
#define GPAR_SERVE_SERVE_SESSION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "graph/delta_journal.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "identify/eip.h"
#include "maintain/rule_maintainer.h"
#include "rule/rule_snapshot.h"
#include "serve/cache_slice.h"

namespace gpar {

/// A long-lived serving session over one (graph, rule set) snapshot pair.
/// Every deployment is the same structure: ONE current `Generation` (graph,
/// rules, plan store, other-component check; RCU-published) and k
/// owned-center `CacheSlice`s — one for a `RuleServer`, one per shard for
/// a `ShardedRuleServer`, which splits the candidates by ownership.
///
/// Everything but the deployment's `Gather` step — how a request reaches
/// its slices — is written once, here. `Query` pins the generation once
/// and every slice answers from it. The write side is intake, sequence
/// stamp, journal append before publish, the `serve.publish` crash
/// window, the maintenance pass, the publish itself, replay on attach,
/// and checkpoint/compact. Publishing derives the next generation once
/// (`DeriveGeneration`), lets every slice adopt it (epoch, rule remap,
/// invalidation walk over one shared affected region) and swaps the
/// generation pointer last. A maintained session runs its pass before the
/// publish, so graph and rules always move together.
///
/// One sequence rule: a live batch that changes the graph is stamped with
/// the last published sequence + 1; a replayed journal frame keeps its own
/// (a checkpoint's floor marker included). The sequence advances when the
/// frame is published, so a frame no reader ever saw is never
/// acknowledged.
///
/// Thread-safety contract: `Query` may be called from any number of threads
/// concurrently, including while one `ApplyDelta` is in flight (deltas
/// publish a new immutable generation; in-flight queries finish on the
/// old one). Writes (`ApplyDelta`, `AttachJournal`, `Checkpoint`,
/// `EnableMaintenance`, `UpdateRules`) serialize on the writer mutex.
class ServeSession {
 public:
  virtual ~ServeSession() = default;

  /// Answers one request: pins the current generation once, validates the
  /// request against it (an empty selection selects every rule;
  /// out-of-range rule indices or point-lookup centers and η <= 0 for
  /// `all_centers` are InvalidArgument), lets the deployment gather its
  /// slices' answers from that generation, and assembles entities and
  /// confidences — so a reply is exactly the answer at one generation.
  /// Validation is the only way a query fails.
  Result<SessionReply> Query(const SessionRequest& request)
      GPAR_EXCLUDES(state_mu_);

  /// Applies a typed edge-mutation batch (inserts and/or deletes): patches
  /// the graph and invalidates exactly the cached state within reach of the
  /// touched edges. Deletions are non-monotone — a membership can be LOST —
  /// so invalidated centers are re-checked on their next query rather than
  /// monotonely extended. The applied mutations are journaled (when a
  /// journal is attached) before the deployment publishes them. A batch
  /// that changes nothing is neither stamped, journaled nor published.
  Result<DeltaStats> ApplyDelta(const GraphDelta& delta)
      GPAR_EXCLUDES(writer_mu_);

  /// Attach-journal mode: replays any frames already in the journal at
  /// `path` (so attaching IS recovering — a fresh session + a populated
  /// journal converge to the journaled state), then appends the applied
  /// mutations of every later `ApplyDelta` BEFORE publishing them.
  /// `replay`, when non-null, reports what the attach scan found.
  Status AttachJournal(const std::string& path,
                       const DeltaJournalOptions& options = {},
                       JournalReplayStats* replay = nullptr)
      GPAR_EXCLUDES(writer_mu_);

  /// Checkpoint: replaces `graph_snapshot_path` with the current graph
  /// (`ReplaceFileDurably`, so a failed or interrupted write leaves the
  /// old file whole) and then compacts the attached journal behind it
  /// (keeping the sequence floor). Requires an attached journal;
  /// serialized against deltas.
  Status Checkpoint(const std::string& graph_snapshot_path)
      GPAR_EXCLUDES(writer_mu_);

  /// Switches the session into maintain-on-ApplyDelta mode: seeds a
  /// `RuleMaintainer` on the current graph (one full discovery pass under
  /// `options.mine`) and serves its diversified top-k from here on — every
  /// later delta runs a maintenance pass before it is published and, when
  /// the top-k changed, publishes the refreshed rule set with it.
  /// The maintained set replaces the loaded snapshot records, which may
  /// differ from them when the snapshot was mined under other parameters.
  /// Rejected when maintenance is already enabled.
  Status EnableMaintenance(const MaintainOptions& options)
      GPAR_EXCLUDES(writer_mu_);
  bool maintenance_enabled() const GPAR_EXCLUDES(writer_mu_);
  /// Accumulated maintenance-pass stats (zero when maintenance is off).
  MaintainStats maintain_stats() const GPAR_EXCLUDES(writer_mu_);
  bool journal_attached() const GPAR_EXCLUDES(writer_mu_);
  /// Last sequence the attached journal holds (0 when none is attached).
  uint64_t journal_sequence() const GPAR_EXCLUDES(writer_mu_);
  /// Replaces the served rule set: a hot rule reload. The new set must
  /// keep the session's predicate q(x,y); any rule radius is served, since
  /// every slice matches on the whole graph. An empty set is allowed: a
  /// maintained top-k can die under deletes and the session must keep
  /// serving (zero rules match nothing). Cached memberships of the rules
  /// the new set keeps survive; `ds`, when non-null, receives the
  /// refresh's counts (`rules_refreshed`, `rules_carried`,
  /// `memberships_invalidated`).
  Status UpdateRules(std::vector<RuleRecord> rules, DeltaStats* ds = nullptr)
      GPAR_EXCLUDES(writer_mu_);

  /// The current graph snapshot. Holding the returned pointer keeps that
  /// version alive across subsequent deltas.
  std::shared_ptr<const Graph> graph_snapshot() const
      GPAR_EXCLUDES(state_mu_);
  /// The currently served rule set, by value: a rule refresh (a
  /// maintenance pass that changed the top-k, or `UpdateRules`) frees the
  /// set it replaces.
  std::vector<RuleRecord> rules() const GPAR_EXCLUDES(state_mu_);
  /// The last published sequence: the last frame made visible here.
  uint64_t delta_sequence() const GPAR_EXCLUDES(writer_mu_);
  /// The candidate centers this session answers for (nodes satisfying x's
  /// label), sorted.
  const std::vector<NodeId>& candidates() const { return candidates_; }
  /// Accumulated statistics over the session's lifetime (by value — the
  /// internals keep mutating under concurrent queries). A router counts
  /// each request once; per-slice stats live on the slices.
  ServeStats lifetime_stats() const { return lifetime_.Snapshot(); }

 protected:
  ServeSession() = default;

  /// Loads `g` and `rules` as the first generation: validates the rules,
  /// sets the predicate and the candidates. The deployment then adds its
  /// slices.
  Status Start(Graph g, std::vector<RuleRecord> rules);
  /// Pins the current generation.
  std::shared_ptr<const Generation> AcquireGeneration() const
      GPAR_EXCLUDES(state_mu_);
  /// The deployment's read step, for a request already validated against
  /// `st`: fills `reply->matched` per requested center (every candidate
  /// when `all_centers`, with the supports summed into `reply`) and the
  /// matching stats, for `selected` at `st`.
  virtual void Gather(const Generation& st, const SessionRequest& request,
                      const std::vector<uint32_t>& selected,
                      SessionReply* reply) = 0;

  Predicate q_{};  ///< the rule set's predicate q(x, y)
  std::vector<NodeId> candidates_;
  /// The owned-center slices; fixed after creation.
  std::vector<std::unique_ptr<CacheSlice>> slices_;
  LifetimeStats lifetime_;

 private:
  /// The body of `ApplyDelta`. `replay_sequence`, when nonzero, pins the
  /// frame to a journaled sequence instead of stamping the next one.
  Result<DeltaStats> ApplyDeltaLocked(const GraphDelta& delta,
                                      uint64_t replay_sequence)
      GPAR_REQUIRES(writer_mu_);
  /// Serves `rules` from now on when they differ from the served set,
  /// setting `ds->rules_refreshed`.
  void PublishRules(std::vector<RuleRecord> rules, DeltaStats* ds)
      GPAR_REQUIRES(writer_mu_);
  /// The one publish path, for deltas and rule refreshes alike: derives
  /// the generation after `old` for `graph` (with `rules`, or old's when
  /// null), lets every slice adopt it, then publishes it.
  void Publish(const Generation& old, std::shared_ptr<const Graph> graph,
               std::span<const EdgeInsert> applied,
               std::span<const EdgeDelete> deleted,
               std::shared_ptr<const ServedRules> rules, DeltaStats* ds)
      GPAR_REQUIRES(writer_mu_);

  /// Serializes every write.
  mutable Mutex writer_mu_;
  std::shared_ptr<Interner> interner_;
  Pattern pq_;  ///< q(x, y) as a pattern, planned in every generation
  mutable Mutex state_mu_;  ///< guards the `state_` pointer only
  std::shared_ptr<const Generation> state_ GPAR_GUARDED_BY(state_mu_);
  std::unique_ptr<DeltaJournal> journal_ GPAR_GUARDED_BY(writer_mu_);
  std::unique_ptr<RuleMaintainer> maintainer_ GPAR_GUARDED_BY(writer_mu_);
  uint64_t sequence_ GPAR_GUARDED_BY(writer_mu_) = 0;
};

/// A (graph, rule set) snapshot pair as written by `WriteGraphSnapshot[File]`
/// and `WriteRuleSetSnapshot[File]`.
struct SnapshotPair {
  Graph graph;
  std::vector<RuleRecord> rules;
};

/// Reads a snapshot pair; the rules are interned into the graph's
/// dictionary.
Result<SnapshotPair> ReadSnapshotPair(const std::string& graph_snapshot_path,
                                      const std::string& rules_snapshot_path);

/// The one Load/Recover pair, for any deployment `Server` built in memory
/// by `Server::Create(Graph, rules, Options)`.
template <typename Server, typename Options>
class SnapshotSession : public ServeSession {
 public:
  /// Loads a snapshot pair produced by `WriteGraphSnapshot[File]` and
  /// `WriteRuleSetSnapshot[File]`.
  static Result<std::unique_ptr<Server>> Load(
      const std::string& graph_snapshot_path,
      const std::string& rules_snapshot_path, const Options& options = {}) {
    GPAR_ASSIGN_OR_RETURN(
        SnapshotPair pair,
        ReadSnapshotPair(graph_snapshot_path, rules_snapshot_path));
    return Server::Create(std::move(pair.graph), std::move(pair.rules),
                          options);
  }

  /// Crash recovery: loads the snapshot pair, then attaches the journal at
  /// `journal_path` — which replays its valid frame prefix (torn tail
  /// truncated) through the normal publish step and leaves the journal
  /// live for later appends. The result is equivalent to a deployment that
  /// applied those deltas and never crashed.
  static Result<std::unique_ptr<Server>> Recover(
      const std::string& graph_snapshot_path,
      const std::string& rules_snapshot_path,
      const std::string& journal_path, const Options& options = {},
      const DeltaJournalOptions& journal_options = {},
      JournalReplayStats* replay = nullptr) {
    GPAR_ASSIGN_OR_RETURN(
        std::unique_ptr<Server> server,
        Load(graph_snapshot_path, rules_snapshot_path, options));
    GPAR_RETURN_NOT_OK(
        server->AttachJournal(journal_path, journal_options, replay));
    return server;
  }
};

}  // namespace gpar

#endif  // GPAR_SERVE_SERVE_SESSION_H_
