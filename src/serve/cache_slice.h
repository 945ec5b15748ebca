#ifndef GPAR_SERVE_CACHE_SLICE_H_
#define GPAR_SERVE_CACHE_SLICE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "identify/center_evaluator.h"
#include "identify/eip.h"
#include "match/matcher.h"
#include "parallel/thread_pool.h"
#include "rule/rule_snapshot.h"

namespace gpar {

/// Options for `RuleServer`, and for each cache slice of a
/// `ShardedRuleServer`.
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
};

/// Per-request (and accumulated lifetime) serving statistics.
struct ServeStats {
  uint64_t requests = 0;
  uint64_t cache_hits = 0;    ///< (rule, center) memberships answered from cache
  uint64_t cache_probes = 0;  ///< memberships computed by pattern matching
  uint64_t centers_evaluated = 0;  ///< centers that needed any matching work
  /// Always 0: every shard is an in-process cache slice answering a
  /// validated request, so no shard call fails or is retried. Kept only
  /// because the pipeline benchmark still reports them (`router.failures`).
  uint64_t shards_failed = 0;
  uint64_t retries = 0;
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
  /// Always 0: every cache slice adopts a generation in process, so no
  /// delta is serialized to a shard. Kept only because the pipeline
  /// benchmark still reports it (`router.wire_bytes_per_batch`).
  uint64_t wire_bytes = 0;
  uint64_t sequence = 0;       ///< sequence stamped on the batch
  uint64_t journal_bytes = 0;  ///< frame bytes appended to an attached journal
  /// Maintain-on-ApplyDelta mode: 1 when this batch's maintenance pass
  /// changed the served top-k and a refreshed rule set was published with
  /// the new graph generation.
  uint64_t rules_refreshed = 0;
  /// With `rules_refreshed`: the rules of the new set whose cached
  /// memberships survived the refresh by pattern identity, once per refresh
  /// however many slices the deployment has.
  uint64_t rules_carried = 0;
  double seconds = 0;
};

/// A lifetime `ServeStats`. Lock-free — relaxed atomics, latency in
/// nanoseconds — because every request adds to it, and a shared mutex here
/// would serialize otherwise disjoint hot paths.
class LifetimeStats {
 public:
  /// Adds one request's counts.
  void Record(const ServeStats& stats);
  ServeStats Snapshot() const;

 private:
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_probes_{0};
  std::atomic<uint64_t> centers_evaluated_{0};
  std::atomic<uint64_t> latency_nanos_{0};
};

/// One worker's private matching state (matchers are not thread-safe): the
/// evaluator answers full-Σ items, the matcher the q(x, y) probe and
/// single-rule items.
struct WorkerCtx {
  std::unique_ptr<CenterEvaluator> evaluator;
  std::unique_ptr<VF2Matcher> matcher;
};

/// One immutable served rule set and everything derived from it per rule.
/// A maintenance refresh (or `UpdateRules`) publishes a new one with the
/// next generation; in-flight queries keep matching against the set they
/// selected rules from, never a half-replaced one.
struct ServedRules {
  std::vector<RuleRecord> records;
  std::vector<Gpar> sigma;  ///< records[i].rule, stable storage for evaluators
  std::vector<char> all_ok;  ///< constant 1s handed to evaluators
  bool has_other_components = false;
  /// Invalidation radius: the largest `eval_radius` of the rules, at least
  /// 1 (a q-class reads the center's own out-edges).
  uint32_t radius = 1;
};

/// Derives the per-rule state of a record set. Validation (non-empty sets
/// keep q) happens in the callers — see `ServeSession::UpdateRules`.
std::shared_ptr<const ServedRules> BuildServedRules(
    std::vector<RuleRecord> records);

/// One immutable served generation: the graph, the rule set, and what is
/// derived from both once. A deployment publishes exactly one per delta or
/// rule refresh, whatever its slice count; queries pin it with a
/// shared_ptr for their whole run, and it dies with its last reader.
/// Matching contexts are pooled per generation (lazily built, reused
/// across requests and slices, discarded with the generation).
struct Generation {
  uint64_t epoch = 0;
  std::shared_ptr<const Graph> graph;
  /// Usually shared with the previous generation; a refresh brings a new
  /// one, and every slice remaps its cached bits to its indices by pattern
  /// identity — rule indices change meaning across rule sets.
  std::shared_ptr<const ServedRules> rules;
  /// The epoch that first published `rules`: cache entries stamped before
  /// it hold another rule set's indices.
  uint64_t rules_epoch = 0;
  std::vector<char> other_ok;  ///< per-rule other-component check
  std::unique_ptr<SearchPlanStore> plan_store;

  mutable Mutex ctx_mu;
  mutable std::vector<std::unique_ptr<WorkerCtx>> free_ctxs
      GPAR_GUARDED_BY(ctx_mu);
};

/// The one derivation of a generation: `graph` with `rules`, following
/// `prev` (null for the first). Builds the plan store (planned at x for
/// the predicate pattern `pq` and every rule) and the other-component
/// check, which it shares with `prev` when neither the rules nor any
/// x-free component can have changed.
std::shared_ptr<const Generation> DeriveGeneration(
    const Pattern& pq, const Generation* prev,
    std::shared_ptr<const Graph> graph,
    std::shared_ptr<const ServedRules> rules);

/// What publishing `next` over `old` changes, derived once per publish and
/// walked by every slice: the rule remap (when the rule set changed) and
/// the delta-affected region with each rule's reach (when the graph did).
class GenerationChange {
 public:
  GenerationChange(const Predicate& q, const Generation& old,
                   const Generation& next,
                   std::span<const EdgeInsert> applied,
                   std::span<const EdgeDelete> deleted);
  GenerationChange(const GenerationChange&) = delete;
  GenerationChange& operator=(const GenerationChange&) = delete;

  /// Rules of the new set that carry an old rule's cached bits.
  uint64_t rules_carried() const noexcept { return rules_carried_; }

 private:
  friend class CacheSlice;
  static constexpr uint32_t kRetired = static_cast<uint32_t>(-1);

  /// Whether the delta can have flipped a cached answer `member` of `v`:
  /// deletes reach members on the old graph, inserts non-members on the
  /// new one.
  struct Reach {
    const std::vector<uint32_t>* lost;
    const std::vector<uint32_t>* gained;
    bool Flips(bool member, NodeId v, uint32_t radius) const {
      const std::vector<uint32_t>* d = member ? lost : gained;
      return d != nullptr && (*d)[v] <= radius;
    }
  };

  const Generation& old_;
  const Generation& next_;
  bool rules_changed_ = false;
  /// With a new rule set: per new rule, the old rule with the same pattern
  /// (or kRetired), and per old rule whether a new one carries it.
  std::vector<uint32_t> source_;
  std::vector<char> kept_;
  uint64_t rules_carried_ = 0;
  /// (node, distance to the nearest touched endpoint) at the rules' radius.
  std::vector<std::pair<NodeId, uint32_t>> touched_;
  std::optional<DeltaReach> lost_, gained_;
  std::vector<Reach> pr_reach_, q_reach_;  ///< per rule of `next_`
  /// Centers that gained or lost a q-labeled out-edge.
  std::unordered_set<NodeId> q_sources_;
};

/// One owned-center slice of a served deployment: its candidate centers,
/// the lock-sharded LRU (rule, center) match cache over them, its worker
/// pool and its lifetime stats. A `RuleServer` has one slice owning every
/// candidate; a `ShardedRuleServer` has one per shard, all in one
/// process. Slices hold no generation: each answer is computed at the
/// generation its caller pinned, for a request `ServeSession::Query` has
/// already validated against it, so an answer cannot fail; each publish
/// walks every slice (`Adopt`) before the new generation becomes visible.
///
/// Memberships are raw P_R / antecedent bits, a function of the pattern
/// and the graph only (other-component satisfiability is applied at read
/// time). By the paper's locality property (membership of v depends only
/// on G_d(v)) and the affected-area bound of incremental matching, a
/// (rule, center) bit is cleared only when a delta edge whose label triple
/// the rule's pattern uses lies within the rule's radius of the center, in
/// the direction that can flip the cached answer (`DeltaReach`, shared
/// with the rule maintainer). A rule refresh keeps the cached bits of
/// every rule whose pattern the new set still serves.
class CacheSlice {
 public:
  CacheSlice(const Predicate& q, std::vector<NodeId> candidates,
             const RuleServerOptions& options);
  CacheSlice(const CacheSlice&) = delete;
  CacheSlice& operator=(const CacheSlice&) = delete;

  /// Answers `request` at generation `st` for `selected` (the request is
  /// already validated against `st`): fills `reply->matched` per requested
  /// center — every owned candidate when `all_centers`, together with this
  /// slice's partial supports — and `reply->stats`. Entities and
  /// confidences are the session's (`ServeSession::Query`).
  void Answer(const Generation& st, const SessionRequest& request,
              const std::vector<uint32_t>& selected, SessionReply* reply);

  /// Brings the cache from `change`'s old generation to its next one:
  /// stores the new epoch, remaps the cached bits when the rules changed,
  /// then clears every bit the applied mutations can have flipped. Called
  /// by the deployment's single writer, before it publishes the
  /// generation.
  void Adopt(const GenerationChange& change, DeltaStats* ds);

  /// The candidate centers this slice answers for, sorted.
  const std::vector<NodeId>& candidates() const { return candidates_; }
  /// This slice's accumulated answer statistics.
  ServeStats lifetime_stats() const { return lifetime_.Snapshot(); }
  size_t cached_centers() const;

 private:
  /// Cached per-center state; rule memberships are bitsets over the rule
  /// set of the entry's epoch.
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
  static bool Answers(const CenterEntry& e, const Generation& st) noexcept {
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

  static size_t rule_words(const ServedRules& rules) noexcept {
    return (rules.sigma.size() + 63) / 64;
  }
  size_t max_cached_centers(const ServedRules& rules) const;
  CacheShard& ShardFor(NodeId center);

  /// Ensures memberships of `selected` rules for every center in `centers`
  /// (in range of `st`'s graph; deduplicated internally), filling `rows`
  /// keyed by center. Updates the cache/LRU and accumulates stats.
  void EnsureRows(const Generation& st, std::span<const NodeId> centers,
                  const std::vector<uint32_t>& selected,
                  std::unordered_map<NodeId, Row>* rows, ServeStats* stats);
  void EvaluateItem(const Generation& st, WorkerCtx& ctx,
                    WorkItem& item) const;

  /// Moves every entry readable under the old generation to the new rule
  /// indices and stamps it the new epoch; drops the bits of retired rules
  /// and the entries left empty.
  void RemapCache(const GenerationChange& change, DeltaStats* ds);
  /// The selective walk over the delta-affected region: clears each cached
  /// bit the applied mutations can have flipped and each q-class whose
  /// center gained or lost a q-labeled out-edge.
  void InvalidateTouched(const GenerationChange& change, DeltaStats* ds);

  const Predicate q_;
  const Pattern pq_;
  const std::vector<NodeId> candidates_;
  const RuleServerOptions options_;
  ThreadPool pool_;
  /// Epoch of the newest generation, stored before this slice's walk and
  /// before the generation's publication. A query writes its results back
  /// into the cache only if this still equals its generation's epoch
  /// (checked under the cache-shard lock), so a reader that outlived a
  /// delta can never resurrect stale memberships after the walk.
  std::atomic<uint64_t> epoch_{0};
  /// Lock shards of the match cache: concurrent queries contend per shard
  /// (centers hash across shards), not on one global cache mutex.
  static constexpr uint32_t kCacheShards = 8;
  std::array<CacheShard, kCacheShards> match_cache_;
  LifetimeStats lifetime_;
};

}  // namespace gpar

#endif  // GPAR_SERVE_CACHE_SLICE_H_
