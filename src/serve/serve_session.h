#ifndef GPAR_SERVE_SERVE_SESSION_H_
#define GPAR_SERVE_SERVE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
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

namespace gpar {

/// The one request shape the serving tier answers — point lookups and the
/// full Σ(x, G, η) alike — so routers, tools, benches, and the equivalence
/// batteries are written once against `ServeSession`.
struct SessionRequest {
  /// True: classify every candidate center (all nodes with x's label) and
  /// fill the support/confidence fields of the reply, honoring `eta` — the
  /// batch-equivalent Σ(x, G, η) answer. False: classify just `centers`.
  bool all_centers = false;
  /// Point lookups (ignored when `all_centers`). Centers need not satisfy
  /// x's label — such centers simply match nothing.
  std::vector<NodeId> centers;
  /// Rule subset to probe; empty selects every loaded rule.
  std::vector<uint32_t> rules;
  /// Confidence threshold for `all_centers` entity qualification
  /// (BayesFactorConf >= eta). Ignored for point lookups.
  double eta = 1.0;
  /// False (default): a rule matches a center when its antecedent Q does
  /// (the formal Σ(x, G, η) semantics). True: require the full P_R.
  bool require_consequent = false;
  /// Per-request time budget in seconds; 0 = unbounded, negative is
  /// rejected. The sharded router lets it cap the retry/backoff budget for
  /// failing shards (an in-flight shard call is never cancelled — the
  /// budget bounds how long the router keeps TRYING, not a hard wall).
  double deadline_seconds = 0;
};

/// Per-request (and accumulated lifetime) serving statistics.
struct ServeStats {
  uint64_t requests = 0;
  uint64_t cache_hits = 0;    ///< (rule, center) memberships answered from cache
  uint64_t cache_probes = 0;  ///< memberships computed by pattern matching
  uint64_t centers_evaluated = 0;  ///< centers that needed any matching work
  uint64_t shards_failed = 0;  ///< shards that contributed nothing (degraded)
  uint64_t retries = 0;        ///< transient shard errors retried
  double latency_seconds = 0;
};

/// Reply to a `SessionRequest`.
struct SessionReply {
  /// Per requested center (parallel to `request.centers`, or to
  /// `candidates()` when `all_centers`): the selected rule indices whose
  /// antecedent — or full P_R under `require_consequent` — fires there,
  /// sorted ascending.
  std::vector<std::vector<uint32_t>> matched;
  /// Point lookups: distinct centers with at least one matched rule.
  /// `all_centers`: Σ(x, G, η) — candidates matching some rule whose
  /// confidence meets `eta`. Sorted ascending either way.
  std::vector<NodeId> entities;
  /// `all_centers` only: per loaded rule, live supports and confidence on
  /// the current graph (entries for unselected rules stay zero).
  std::vector<EipRuleEval> rule_evals;
  uint64_t supp_q = 0;     ///< candidates matching the consequent q(x, y)
  uint64_t supp_qbar = 0;  ///< LCWA negatives (no q-edge at all)
  /// Degraded mode (sharded router only): one or more shards contributed
  /// nothing, so matched rows of their owned centers are empty and the
  /// supports/confidences are sums over the SURVIVING shards — exact for
  /// the surviving shards' centers, a lower bound globally.
  bool degraded = false;
  /// The shards that contributed nothing (sorted), when `degraded`.
  std::vector<uint32_t> failed_shards;
  ServeStats stats;
};

/// Cost accounting for one `ApplyDelta` call.
struct DeltaStats {
  size_t edges_inserted = 0;
  size_t duplicates_ignored = 0;
  size_t edges_deleted = 0;
  /// Deletes naming an edge the graph did not have (tolerated, per
  /// `EdgeDelete`), plus repeated deletes of the same edge.
  size_t deletes_missing = 0;
  uint64_t memberships_invalidated = 0;  ///< known (rule, center) bits cleared
  uint64_t qclass_invalidated = 0;
  /// Always 0: nothing per node is precomputed for matching, so a delta
  /// has nothing to refresh. Kept only because the pipeline benchmark still
  /// reports it (`delta.sketches_per_batch`).
  uint64_t sketches_refreshed = 0;
  uint64_t wire_bytes = 0;        ///< serialized delta bytes shipped to shards
  uint64_t sequence = 0;       ///< journal/router sequence stamped on the batch
  uint64_t journal_bytes = 0;  ///< frame bytes appended to an attached journal
  /// Router only: shards that did not acknowledge this batch (they answer
  /// no queries — degraded mode — until a journal resync catches them up).
  size_t shards_lagging = 0;
  /// Maintain-on-ApplyDelta mode: 1 when this batch's maintenance pass
  /// changed the served top-k and a refreshed rule set was published with
  /// the new graph generation.
  uint64_t rules_refreshed = 0;
  /// With `rules_refreshed`: the rules of the new set whose cached
  /// memberships survived the refresh by pattern identity. A router sums
  /// it over its shards.
  uint64_t rules_carried = 0;
  double seconds = 0;
};

/// A session's lifetime `ServeStats`. Lock-free — relaxed atomics, latency
/// in nanoseconds — because every request adds to it, and a shared mutex
/// here would serialize otherwise disjoint hot paths.
class LifetimeStats {
 public:
  /// Adds one request's (or a delta's retry) counts.
  void Record(const ServeStats& stats);
  ServeStats Snapshot() const;

 private:
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_probes_{0};
  std::atomic<uint64_t> centers_evaluated_{0};
  std::atomic<uint64_t> shards_failed_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> latency_nanos_{0};
};

/// A long-lived serving session over one (graph, rule set) snapshot pair:
/// `RuleServer` answers from a single process-local graph; sharded
/// deployments put a `ShardedRuleServer` router in front of k of them.
/// Both ends of that split speak this interface.
///
/// The read side (`Query` and the accessors) is each deployment's own. The
/// write side is written once, here, for both: intake, sequence stamp,
/// journal append before publish, the `serve.publish` crash window, the
/// deployment's publish step, the maintenance pass, replay on attach, and
/// checkpoint/compact. A deployment plugs in through two hooks —
/// `PublishDelta` and `PublishRules` — and the shared `MaintainPass` its
/// publish step calls.
///
/// One sequence rule: a live batch that changes the graph is stamped with
/// the last published sequence + 1; a replayed journal frame keeps its own
/// (a checkpoint's floor marker included). The sequence advances when the
/// publish step makes the frame visible, so a frame no reader ever saw is
/// never acknowledged.
///
/// Thread-safety contract: `Query` may be called from any number of threads
/// concurrently, including while one `ApplyDelta` is in flight (deltas
/// publish a new immutable state snapshot; in-flight queries finish on the
/// old one). Writes (`ApplyDelta`, `AttachJournal`, `Checkpoint`,
/// `EnableMaintenance`, `UpdateRules`) serialize on the writer mutex.
class ServeSession {
 public:
  virtual ~ServeSession() = default;

  /// Answers one request against the current graph snapshot.
  virtual Result<SessionReply> Query(const SessionRequest& request) = 0;

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

  /// Checkpoint: writes the current graph to `graph_snapshot_path` and
  /// compacts the attached journal behind it (keeping the sequence
  /// floor). Requires an attached journal; serialized against deltas.
  Status Checkpoint(const std::string& graph_snapshot_path)
      GPAR_EXCLUDES(writer_mu_);

  /// Switches the session into maintain-on-ApplyDelta mode: seeds a
  /// `RuleMaintainer` on the current graph (one full discovery pass under
  /// `options.mine`) and serves its diversified top-k from here on — every
  /// later delta runs a maintenance pass inside the deployment's publish
  /// step and, when the top-k changed, publishes the refreshed rule set.
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
  /// Replaces the served rule set: a hot rule reload, and the way a router
  /// pushes its refreshed set to its (otherwise read-only) shards. The new
  /// set must keep the session's predicate q(x,y); any rule radius is
  /// served, since every deployment matches on the whole graph. An empty
  /// set is allowed: a maintained top-k can die under deletes and the
  /// session must keep serving (zero rules match nothing). Cached
  /// memberships of the rules the new set keeps survive; `ds`, when
  /// non-null, receives the refresh's counts (`rules_refreshed`,
  /// `rules_carried`, `memberships_invalidated`).
  Status UpdateRules(std::vector<RuleRecord> rules, DeltaStats* ds = nullptr)
      GPAR_EXCLUDES(writer_mu_);

  /// The current graph snapshot. Holding the returned pointer keeps that
  /// version alive across subsequent deltas.
  virtual std::shared_ptr<const Graph> graph_snapshot() const = 0;

  /// The currently served rule set, by value: a rule refresh (a
  /// maintenance pass that changed the top-k, or `UpdateRules`) frees the
  /// set it replaces.
  virtual std::vector<RuleRecord> rules() const = 0;
  /// The candidate centers this session answers for (nodes satisfying x's
  /// label — a shard's owned ones), sorted.
  const std::vector<NodeId>& candidates() const { return candidates_; }
  /// Interns an edge-label name through the session's dictionary — for
  /// building `GraphDelta` batches from textual input (ids are append-only,
  /// so existing patterns and cached state are unaffected). Call from the
  /// delta-applying thread only; it mutates the shared dictionary.
  LabelId InternLabel(std::string_view name) {
    return interner_->Intern(name);
  }
  /// Accumulated statistics over the session's lifetime (by value — the
  /// internals keep mutating under concurrent queries). A router counts
  /// each request once; per-shard stats live on the shards.
  ServeStats lifetime_stats() const { return lifetime_.Snapshot(); }

 protected:
  ServeSession() = default;

  /// One stamped frame on its way from the writer to the readers.
  struct DeltaCommit {
    /// The served graph the frame was patched against, and the patched
    /// graph — the same pointer for a replayed floor marker, which changes
    /// nothing.
    std::shared_ptr<const Graph> old_graph;
    std::shared_ptr<const Graph> new_graph;
    /// The frame as journaled: the applied mutations (duplicates and
    /// missing deletes filtered), the stamped sequence, and the definitions
    /// of the labels they name. The publish step may consume it.
    GraphDelta frame;
    DeltaStats stats;
    /// Set by `PublishDelta` once readers can observe `new_graph`. The
    /// sequence advances with it, even when the step then reports an error.
    bool published = false;

    bool changes_graph() const { return new_graph != old_graph; }
  };

  /// Hook: makes a committed frame visible to readers, running
  /// `MaintainPass` where the deployment keeps graph and rules in step.
  virtual Status PublishDelta(DeltaCommit* commit)
      GPAR_REQUIRES(writer_mu_) = 0;
  /// Hook: serves `rules` from now on when they differ from the served set
  /// (setting `ds->rules_refreshed`) — the seed of `EnableMaintenance`.
  virtual Status PublishRules(std::vector<RuleRecord> rules, DeltaStats* ds)
      GPAR_REQUIRES(writer_mu_) = 0;

  /// The maintenance pass for a published frame: when maintenance is on,
  /// advances the maintainer from `commit.old_graph` to `commit.new_graph`,
  /// fills `top_k` with its top-k and returns true; false when it is off.
  Result<bool> MaintainPass(const DeltaCommit& commit,
                            std::vector<RuleRecord>* top_k)
      GPAR_REQUIRES(writer_mu_);

  const DeltaJournal* journal() const GPAR_REQUIRES(writer_mu_) {
    return journal_.get();
  }

  /// Serializes every write; deployments guard their writer-side state
  /// with it too.
  mutable Mutex writer_mu_;
  std::shared_ptr<Interner> interner_;
  Predicate q_{};  ///< the rule set's predicate q(x, y)
  std::vector<NodeId> candidates_;
  /// Read-only sessions (shards, whose writes come from their router)
  /// reject every write entry point with InvalidArgument.
  bool read_only_ = false;
  LifetimeStats lifetime_;

 private:
  /// The body of `ApplyDelta`. `replay_sequence`, when nonzero, pins the
  /// frame to a journaled sequence instead of stamping the next one.
  Result<DeltaStats> ApplyDeltaLocked(const GraphDelta& delta,
                                      uint64_t replay_sequence)
      GPAR_REQUIRES(writer_mu_);
  Status CheckWritable() const;

  std::unique_ptr<DeltaJournal> journal_ GPAR_GUARDED_BY(writer_mu_);
  std::unique_ptr<RuleMaintainer> maintainer_ GPAR_GUARDED_BY(writer_mu_);
  uint64_t sequence_ GPAR_GUARDED_BY(writer_mu_) = 0;
};

/// Validates `request` against a session serving `num_rules` rules and
/// returns its rule selection — empty selects all, otherwise sorted,
/// deduplicated and range-checked. Rejects η <= 0 for `all_centers` and a
/// negative `deadline_seconds`. Both `ServeSession` implementations call
/// it first, against the rule set they pinned for the request.
Result<std::vector<uint32_t>> ValidateRequest(const SessionRequest& request,
                                              size_t num_rules);

/// Fills `reply->entities` once `reply->matched` holds one row per entry
/// of `centers`. Point lookups: the distinct centers with a matched rule.
/// `all_centers` (`centers` = the sorted candidates): computes each
/// selected rule's BayesFactorConf from the supports summed into `reply`
/// — the one place confidence is assembled, whether the sums come from
/// one server or from every shard (Section 5.1) — and keeps the
/// candidates matching some rule with confidence >= η. Matched indices
/// past `reply->rule_evals` (a shard racing a rule refresh) never qualify.
void AssembleEntities(const SessionRequest& request,
                      const std::vector<uint32_t>& selected,
                      std::span<const NodeId> centers, SessionReply* reply);

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
