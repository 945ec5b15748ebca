#ifndef GPAR_SERVE_SERVE_SESSION_H_
#define GPAR_SERVE_SERVE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "identify/eip.h"
#include "rule/rule_snapshot.h"
#include "serve/delta_journal.h"

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
  uint64_t sketches_refreshed = 0;
  uint64_t members_extended = 0;  ///< shard mode: nodes pulled into the view
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
  double seconds = 0;
};

/// A long-lived serving session over one (graph, rule set) snapshot pair:
/// `RuleServer` answers from a single process-local graph; sharded
/// deployments put a `ShardedRuleServer` router in front of k of them.
/// Both ends of that split speak this interface.
///
/// Thread-safety contract: `Query` may be called from any number of threads
/// concurrently, including while one `ApplyDelta` is in flight (deltas
/// publish a new immutable state snapshot; in-flight queries finish on the
/// old one). Concurrent `ApplyDelta` calls serialize internally.
class ServeSession {
 public:
  virtual ~ServeSession() = default;

  /// Answers one request against the current graph snapshot.
  virtual Result<SessionReply> Query(const SessionRequest& request) = 0;

  /// Applies a typed edge-mutation batch (inserts and/or deletes): patches
  /// the graph and invalidates exactly the cached state within reach of the
  /// touched edges. Deletions are non-monotone — a membership can be LOST —
  /// so invalidated centers are re-checked on their next query rather than
  /// monotonely extended.
  virtual Result<DeltaStats> ApplyDelta(const GraphDelta& delta) = 0;

  /// Attach-journal mode: replays any frames already in the journal at
  /// `path` (so attaching IS recovering — a fresh session + a populated
  /// journal converge to the journaled state), then appends the applied
  /// mutations of every later `ApplyDelta` BEFORE publishing them.
  /// `replay`, when non-null, reports what the attach scan found.
  virtual Status AttachJournal(const std::string& path,
                               const DeltaJournalOptions& options = {},
                               JournalReplayStats* replay = nullptr) = 0;

  /// Checkpoint: writes the current graph to `graph_snapshot_path` and
  /// compacts the attached journal behind it (keeping the sequence
  /// floor). Requires an attached journal; serialized against deltas.
  virtual Status Checkpoint(const std::string& graph_snapshot_path) = 0;

  /// The current graph snapshot. Holding the returned pointer keeps that
  /// version alive across subsequent deltas.
  virtual std::shared_ptr<const Graph> graph_snapshot() const = 0;

  virtual const std::vector<RuleRecord>& rules() const = 0;
  /// All candidate centers (nodes satisfying x's label), sorted.
  virtual const std::vector<NodeId>& candidates() const = 0;
  /// Interns an edge-label name through the session's dictionary — for
  /// building `GraphDelta` batches from textual input (ids are append-only,
  /// so existing patterns and cached state are unaffected). Call from the
  /// delta-applying thread only; it mutates the shared dictionary.
  virtual LabelId InternLabel(std::string_view name) = 0;
  /// Accumulated statistics over the session's lifetime (by value — the
  /// internals keep mutating under concurrent queries).
  virtual ServeStats lifetime_stats() const = 0;
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

/// The front half of every `ApplyDelta`: re-interns `delta.label_defs`
/// (replayed journal frames carry their own dictionary, so a frame minted
/// after the snapshot was written still resolves; live deltas have none),
/// patches `g`, and records the patch counts in `ds`. A patch that has not
/// `changed()` the graph leaves every cached answer valid — callers return
/// early, journaling and publishing nothing.
Result<GraphPatch> IntakeDelta(const Graph& g, const GraphDelta& delta,
                               Interner* labels, DeltaStats* ds);

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

}  // namespace gpar

#endif  // GPAR_SERVE_SERVE_SESSION_H_
