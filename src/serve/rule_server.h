#ifndef GPAR_SERVE_RULE_SERVER_H_
#define GPAR_SERVE_RULE_SERVER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "identify/center_evaluator.h"
#include "identify/eip.h"
#include "match/matcher.h"
#include "parallel/thread_pool.h"
#include "rule/rule_snapshot.h"
#include "serve/serve_session.h"

namespace gpar {

/// Options for `RuleServer`.
///
/// The server always runs Match (Section 5.2): exists-queries with
/// multi-pattern sharing across the loaded rules.
struct RuleServerOptions {
  uint32_t num_workers = 4;
  /// Capacity of the (rule, center) match cache, counted in (rule, center)
  /// memberships. Centers are the physical eviction unit: one cached center
  /// holds one membership slot per loaded rule.
  size_t cache_capacity = size_t{1} << 20;
};

/// The online half of GPAR mining (Section 5 framing): rules are mined
/// offline into snapshots; a long-lived `RuleServer` session loads one
/// (graph, rule set) snapshot pair, precomputes per-rule state once —
/// search plans in a shared `SearchPlanStore`, the per-label candidate
/// index, global satisfiability of antecedent components not containing
/// x — and then answers `Query` requests on a persistent `ThreadPool`, far
/// cheaper than one batch `IdentifyEntities` run per request.
///
/// Memberships are memoized in a lock-sharded LRU (rule, center) match
/// cache. Edge deltas (`ApplyDelta`) publish a new immutable state
/// snapshot (RCU style) and invalidate only the cached memberships the
/// delta can have changed — everything else stays warm. By the paper's
/// locality property (membership of v depends only on G_d(v)) and the
/// affected-area bound of incremental matching, a (rule, center) bit is
/// cleared only when a delta edge whose label triple the rule's pattern
/// uses lies within the rule's radius of the center, in the direction
/// that can flip the cached answer: a delete for a member, an insert for
/// a non-member (`DeltaReach`, shared with the rule maintainer). A rule
/// refresh (a maintained top-k that moved, or `UpdateRules`) keeps the
/// cached bits of every rule whose pattern the new set still serves.
/// An `all_centers` query answers exactly like a fresh batch
/// `IdentifyEntities` on the equivalent graph (the ServeEquivalence and
/// ShardedServeEquivalence tests).
///
/// Thread-safety: `Query` may run from any number of threads concurrently;
/// `ApplyDelta` never blocks in-flight queries (they finish on the state
/// snapshot they started with). Writers serialize among themselves.
///
/// The write path (`ApplyDelta`, journal, replay, checkpoint, maintenance)
/// is `ServeSession`'s; this class supplies its publish step — one
/// `SwapStateAndInvalidate` that moves graph and rules together.
///
/// A `RuleServer` can also run as one shard of a `ShardedRuleServer`
/// deployment (`CreateShard`): it then serves only its owned centers —
/// matching them on the shared parent CSR, like any other server — and
/// receives serialized `GraphDelta` batches from the router
/// (`ApplyShardDelta`) instead of applying deltas itself.
class RuleServer : public SnapshotSession<RuleServer, RuleServerOptions> {
 public:
  /// Builds a session from in-memory state (tests, single-process use).
  static Result<std::unique_ptr<RuleServer>> Create(
      Graph g, std::vector<RuleRecord> rules,
      const RuleServerOptions& options = {});

  /// Builds one shard of a sharded deployment: the server answers for
  /// `owned_centers` (parent-global node ids) only, matching them on the
  /// shared `graph`.
  static Result<std::unique_ptr<RuleServer>> CreateShard(
      std::shared_ptr<const Graph> graph, std::vector<NodeId> owned_centers,
      std::vector<RuleRecord> rules, const RuleServerOptions& options = {});

  RuleServer(const RuleServer&) = delete;
  RuleServer& operator=(const RuleServer&) = delete;

  // ---- ServeSession ----

  Result<SessionReply> Query(const SessionRequest& request) override;
  std::shared_ptr<const Graph> graph_snapshot() const override;
  std::vector<RuleRecord> rules() const override;

  // ---- Shard seam (used by ShardedRuleServer) ----

  /// Ingests one serialized `GraphDelta` batch from the router together
  /// with the already-patched parent graph (shards share the parent CSR,
  /// so the router patches once and ships the cheap delta bytes, not a
  /// graph snapshot), then invalidates like `ApplyDelta`. Rejected on
  /// non-shard servers.
  Result<DeltaStats> ApplyShardDelta(std::shared_ptr<const Graph> new_graph,
                                     std::string_view delta_bytes);

  /// Shard servers are read-only: `ApplyDelta`, `AttachJournal` and
  /// `EnableMaintenance` are rejected — the router owns those.
  bool is_shard() const noexcept { return read_only_; }
  /// Shard mode: sequence of the last batch this shard applied — the
  /// router's resync logic compares it against its own delta sequence.
  uint64_t shard_sequence() const GPAR_EXCLUDES(writer_mu_);

  // ---- Introspection ----

  const Predicate& predicate() const noexcept { return q_; }
  size_t cached_centers() const;
  size_t plans_prepared() const;

 private:
  /// One worker's private matching state (matchers are not thread-safe):
  /// the evaluator answers full-Σ items, the matcher the q(x, y) probe and
  /// single-rule items.
  struct WorkerCtx {
    std::unique_ptr<CenterEvaluator> evaluator;
    std::unique_ptr<VF2Matcher> matcher;
  };

  /// One immutable generation of the loaded rule set and everything derived
  /// from it per rule. Published inside `State` (RCU, like the graph) so a
  /// maintenance refresh can swap the whole set atomically: in-flight
  /// queries keep matching against the records/sigma they selected rules
  /// from, never a half-replaced set.
  struct RuleSet {
    std::vector<RuleRecord> records;
    std::vector<Gpar> sigma;  ///< records[i].rule, stable storage for evaluators
    std::vector<char> all_ok;  ///< constant 1s handed to evaluators
    bool has_other_components = false;
    /// Invalidation radius: the largest `eval_radius` of the rules, at
    /// least 1 (a q-class reads the center's own out-edges).
    uint32_t radius = 1;
  };

  /// One immutable graph generation. Queries pin the current `State` with
  /// a shared_ptr for their whole run; `ApplyDelta` builds the successor
  /// and swaps the head pointer, so readers never see a half-updated
  /// graph/rules/plan trio and the old generation dies with its last
  /// reader. Matching contexts are pooled per state (lazily built, reused
  /// across requests, discarded with the generation).
  struct State {
    uint64_t epoch = 0;
    std::shared_ptr<const Graph> graph;
    /// The rule set this generation serves. Usually shared with the
    /// previous generation; a maintenance refresh (or `UpdateRules`)
    /// publishes a new one, and the swap remaps cached bits to its indices
    /// by pattern identity — rule indices change meaning across rule sets.
    std::shared_ptr<const RuleSet> rules;
    /// The epoch that first published `rules`: cache entries stamped
    /// before it hold another rule set's indices.
    uint64_t rules_epoch = 0;
    std::vector<char> other_ok;  ///< per-rule other-component check
    std::unique_ptr<SearchPlanStore> plan_store;

    mutable Mutex ctx_mu;
    mutable std::vector<std::unique_ptr<WorkerCtx>> free_ctxs
        GPAR_GUARDED_BY(ctx_mu);
  };

  /// Cached per-center state; rule memberships are bitsets over the loaded
  /// rule set (in_q is RAW antecedent membership — other-component
  /// satisfiability is applied at read time, so a flip never invalidates).
  struct CenterEntry {
    uint8_t qclass = 0;  // bit0 known, bit1 is_q, bit2 is_qbar
    /// The epoch the bits were last written (or remapped) at. They answer
    /// for every later epoch until the walk clears them, by locality.
    uint64_t epoch = 0;
    std::vector<uint64_t> known, in_q, in_pr;
    std::list<NodeId>::iterator lru_it;
  };

  /// Whether `e` answers for a reader of `st`: stamped under st's rule set
  /// (so its bit indices are st's) and not after st (so no newer graph's
  /// memberships leak into an older reader's reply).
  static bool Answers(const CenterEntry& e, const State& st) noexcept {
    return e.epoch >= st.rules_epoch && e.epoch <= st.epoch;
  }

  /// One lock shard of the match cache. An untouched membership stays
  /// valid across deltas, by locality; writers only insert results computed
  /// on the CURRENT epoch — see EnsureRows.
  struct CacheShard {
    mutable Mutex mu;
    std::unordered_map<NodeId, CenterEntry> map GPAR_GUARDED_BY(mu);
    std::list<NodeId> lru GPAR_GUARDED_BY(mu);  ///< front = most recently used
  };

  /// Resolved memberships for one request center.
  struct Row {
    uint8_t qclass = 0;
    std::vector<uint64_t> in_q, in_pr;
  };

  /// A unit of matching work for one center.
  struct WorkItem {
    NodeId center = kInvalidNode;
    bool full = false;               ///< evaluate all rules via the evaluator
    std::vector<uint32_t> rules;     ///< rules to probe when !full
    uint8_t qclass_in = 0;           ///< known q-class, or 0 to compute
    // Outputs (written by exactly one worker):
    uint8_t qclass_out = 0;
    std::vector<uint64_t> in_q, in_pr, probed;
  };

  RuleServer(std::vector<RuleRecord> rules, const RuleServerOptions& options);

  Status Init(std::shared_ptr<const Graph> g);

  /// The publish step of `ApplyDelta`: runs the maintenance pass, then one
  /// `SwapStateAndInvalidate` publishes the new graph generation — with the
  /// refreshed rule set when the top-k changed.
  Status PublishDelta(DeltaCommit* commit) override GPAR_REQUIRES(writer_mu_);
  Status PublishRules(std::vector<RuleRecord> rules, DeltaStats* ds) override
      GPAR_REQUIRES(writer_mu_);
  /// Derives the per-rule state (sigma storage, other-component flag,
  /// invalidation radius) for a record set. Validation (non-empty sets
  /// keep q) happens in the callers — see UpdateRules.
  static std::shared_ptr<const RuleSet> BuildRuleSet(
      std::vector<RuleRecord> records);
  void PreparePlans(SearchPlanStore* store, const RuleSet& rules) const;
  std::unique_ptr<WorkerCtx> BuildCtx(const State& st) const;
  std::unique_ptr<WorkerCtx> AcquireCtx(const State& st) const;
  void ReleaseCtx(const State& st, std::unique_ptr<WorkerCtx> ctx) const;

  std::shared_ptr<const State> AcquireState() const GPAR_EXCLUDES(state_mu_);
  /// The one publish path, for deltas, rule refreshes and shards alike:
  /// builds the successor state for `new_graph`, stores its epoch, brings
  /// the cache up to it — `RemapCache` when `new_rules` is non-null (null
  /// keeps `old.rules` shared), then `InvalidateTouched` — and publishes
  /// the state last.
  void SwapStateAndInvalidate(const State& old,
                              std::shared_ptr<const Graph> new_graph,
                              std::span<const EdgeInsert> applied,
                              std::span<const EdgeDelete> applied_deletes,
                              DeltaStats* ds,
                              std::shared_ptr<const RuleSet> new_rules =
                                  nullptr) GPAR_REQUIRES(writer_mu_);
  /// Moves every entry readable under `old` to `next`'s rule indices by
  /// pattern identity and stamps it `next.epoch`; drops the bits of retired
  /// rules and the entries left empty. Counts `ds->rules_carried`.
  void RemapCache(const State& old, const State& next, DeltaStats* ds)
      GPAR_REQUIRES(writer_mu_);
  /// The selective walk over the delta-affected region `touched` (node,
  /// distance to the nearest touched endpoint): clears each cached bit the
  /// applied mutations can have flipped (see the class comment) and each
  /// q-class whose center gained or lost a q-labeled out-edge.
  void InvalidateTouched(const State& old, const State& next,
                         std::span<const std::pair<NodeId, uint32_t>> touched,
                         std::span<const EdgeInsert> applied,
                         std::span<const EdgeDelete> applied_deletes,
                         DeltaStats* ds) GPAR_REQUIRES(writer_mu_);

  static size_t rule_words(const RuleSet& rules) noexcept {
    return (rules.sigma.size() + 63) / 64;
  }
  size_t max_cached_centers(const RuleSet& rules) const;
  CacheShard& ShardFor(NodeId center);

  /// Ensures memberships of `selected` rules for every center in `centers`
  /// (deduplicated internally), filling `rows` keyed by center. Updates the
  /// cache/LRU and accumulates stats.
  Status EnsureRows(const State& st, std::span<const NodeId> centers,
                    const std::vector<uint32_t>& selected,
                    std::unordered_map<NodeId, Row>* rows, ServeStats* stats);

  void EvaluateItem(const State& st, WorkerCtx& ctx, WorkItem& item) const;

  RuleServerOptions options_;
  /// Records handed to Create/Load, consumed by Init into the first
  /// published RuleSet (empty afterwards — the live set lives in State).
  std::vector<RuleRecord> initial_records_;
  Pattern pq_;

  ThreadPool pool_;

  mutable Mutex state_mu_;  ///< guards the `state_` pointer only
  std::shared_ptr<const State> state_ GPAR_GUARDED_BY(state_mu_);
  /// Epoch of the newest state, stored before its invalidation walk and
  /// its publication. A query writes its results back into the cache only
  /// if this still equals its state's epoch (checked under the cache-shard
  /// lock), so a reader that outlived a delta can never resurrect stale
  /// memberships after the invalidation walk.
  std::atomic<uint64_t> epoch_{0};
  /// Shard mode: sequence of the last applied batch. Retried ships of an
  /// already-applied frame are recognized here and become no-ops, so a
  /// router retry can never double-apply a delta.
  uint64_t shard_sequence_ GPAR_GUARDED_BY(writer_mu_) = 0;

  /// Lock shards of the match cache: concurrent queries contend per shard
  /// (centers hash across shards), not on one global cache mutex.
  static constexpr uint32_t kCacheShards = 8;
  std::array<CacheShard, kCacheShards> match_cache_;
};

}  // namespace gpar

#endif  // GPAR_SERVE_RULE_SERVER_H_
