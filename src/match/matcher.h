#ifndef GPAR_MATCH_MATCHER_H_
#define GPAR_MATCH_MATCHER_H_

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "pattern/pattern.h"

namespace gpar {

/// Pins a pattern node to a specific graph node before the search starts.
struct Anchor {
  PNodeId u;
  NodeId v;
};

/// Callback receiving one embedding: `mapping[u]` is the graph node matched
/// to pattern node `u`. Return false to stop the enumeration.
using EmbeddingCallback = std::function<bool(std::span<const NodeId>)>;

/// A cached match order for one (expanded pattern, anchored-node set):
/// anchored nodes first, then fail-first over pattern adjacency (see
/// `BuildSearchPlan`). Only the node *set* of the anchors matters — anchor
/// values are per-call state.
struct SearchPlan {
  std::vector<PNodeId> anchored;  ///< sorted, deduplicated key
  std::vector<PNodeId> order;
};

/// Everything derived from one pattern, cached across searches: the
/// multiplicity expansion and the search plans seen so far (typically one,
/// anchored at x). Keyed by StructuralHash with exact-equality buckets.
struct PatternPlanEntry {
  Pattern pattern;  ///< original, exact-equality key
  Pattern expanded;
  std::vector<PNodeId> first_copy;  ///< original node -> first expanded copy
  std::vector<SearchPlan> plans;
};

/// Builds the fail-first match order for `expanded` with the given anchored
/// node set (expanded-pattern ids; consumed, sorted, deduplicated). The
/// anchored nodes come first. Then, repeatedly, the unplaced node adjacent
/// to a placed one with the smallest expected fan-out is placed next:
/// count(triple) / count(placed node's label) over `g.edge_triples()`,
/// minimised over the node's placed neighbours, ties to the lower id. A
/// selective node is thereby searched before unselective ones multiply
/// the work under it. A remainder with no placed neighbour (a disconnected
/// component) is rooted at the node whose label is rarest in `g`. Any
/// order is correct; the order only steers search cost.
SearchPlan BuildSearchPlan(const Pattern& expanded,
                           std::vector<PNodeId> anchored, const Graph& g);

/// Builds a plan for an expanded pattern and its anchored node set; the
/// planner a `SearchPlanStore` uses (`BuildSearchPlan` by default).
using PlanBuilder = std::function<SearchPlan(const Pattern& expanded,
                                             std::vector<PNodeId> anchored)>;

/// Search-plan store: the multiplicity expansion and the plans of every
/// pattern prepared in it, keyed by StructuralHash with exact-equality
/// buckets and cleared wholesale past a memory ceiling. Shared read-only,
/// it lets the coordinator plan each round's patterns once via `Prepare`
/// while every worker matcher consults it (patterns are identical across
/// fragments); each matcher also keeps a private one for the patterns the
/// shared store lacks.
///
/// Concurrency contract: `Prepare` is single-threaded (call it from
/// coordinator sections, between worker rounds); `Find` is lock-free and
/// safe from any number of threads once preparation for the round is done.
class SearchPlanStore {
 public:
  /// `g` supplies the triple and label counts the planner orders nodes by
  /// (global counts — a better selectivity signal than any one fragment's,
  /// and identical across workers by construction).
  explicit SearchPlanStore(const Graph& g) : g_(g) {}

  SearchPlanStore(const SearchPlanStore&) = delete;
  SearchPlanStore& operator=(const SearchPlanStore&) = delete;

  /// Plans `p` anchored at `anchored` (original-pattern node ids; mapped
  /// through the multiplicity expansion internally) and returns its entry,
  /// valid until the next `Prepare`. Idempotent.
  const PatternPlanEntry& Prepare(const Pattern& p,
                                  std::span<const PNodeId> anchored);
  /// As above, with `build` in place of the fail-first planner (plan-order
  /// equivalence tests feed other orders through the same engine).
  const PatternPlanEntry& Prepare(const Pattern& p,
                                  std::span<const PNodeId> anchored,
                                  const PlanBuilder& build);

  /// The prepared entry for `p`, or nullptr if never prepared.
  const PatternPlanEntry* Find(const Pattern& p) const;

  /// Number of distinct patterns prepared (for tests/stats).
  size_t patterns_planned() const { return planned_; }

 private:
  const Graph& g_;
  size_t planned_ = 0;
  std::unordered_map<uint64_t, std::vector<PatternPlanEntry>> cache_;
  std::vector<PNodeId> key_;  ///< `Prepare`'s reused anchored-set buffer
};

/// Subgraph-isomorphism engine bound to one graph. Fragment workers and
/// serving shards bind it to the whole parent graph too: every match
/// anchored at an owned center lies within the pattern's radius of it, so
/// inside its fragment (Section 4.2 locality), and needs no filter.
///
/// Semantics (Section 2.1): a match is an injective mapping of pattern
/// nodes to graph nodes such that node labels agree and every pattern edge
/// maps to a graph edge with the same label (non-induced). Multiplicity
/// annotations are expanded before searching.
///
/// The search is VF2-style [10]: label-filtered candidates, taken from the
/// smallest labeled adjacency slice of a mapped neighbour, in the
/// fail-first node order of `BuildSearchPlan`.
///
/// Searches reuse per-matcher scratch state (mapping, injectivity bitmap,
/// candidate buffers) and a private `SearchPlanStore`, so repeated
/// `ExistsAt` probes of the same pattern are allocation-free. A loop that
/// probes one pattern at many centers binds it once (`Bind`) and probes
/// with `ProbeAt`, which skips the per-call plan lookup and setup. One
/// backtracking body serves every search; it is instantiated per leaf
/// action (stop at the first match, or visit each embedding), so existence
/// tests run without a callback. Consequently a matcher is NOT
/// reentrant: embedding callbacks must not call back into the same matcher,
/// and instances must not be shared across threads without external
/// synchronization (DMine gives each worker its own matcher).
class VF2Matcher {
 public:
  explicit VF2Matcher(const Graph& g) : g_(g), own_plans_(g) {}

  VF2Matcher(const VF2Matcher&) = delete;
  VF2Matcher& operator=(const VF2Matcher&) = delete;

  /// True iff a match exists honoring `anchors`. Stops at the first match
  /// (the paper's "early termination": a potential customer is identified
  /// once one match is found).
  bool Exists(const Pattern& p, std::span<const Anchor> anchors = {});

  /// True iff a match exists with the designated node x mapped to `vx`.
  bool ExistsAt(const Pattern& p, NodeId vx) {
    Anchor a{p.x(), vx};
    return Exists(p, {&a, 1});
  }

  /// Resolves `p` anchored at its designated node x once — expansion,
  /// plan, anchor table — for a run of `ProbeAt` calls. The binding lasts
  /// until the next `Bind`, `Exists`, `ExistsAt`, `Images` or `Enumerate`
  /// on this matcher.
  void Bind(const Pattern& p) { BindNode(p, p.x()); }

  /// `ExistsAt(p, vx)` for the bound pattern `p`, with none of the per-call
  /// resolution. Requires a live binding.
  bool ProbeAt(NodeId vx);

  /// Q(u, G): distinct graph nodes that match pattern node `u` over all
  /// matches. Computed candidate-by-candidate with early termination, so
  /// the cost is one Exists query per candidate, not full enumeration.
  std::vector<NodeId> Images(const Pattern& p, PNodeId u);

  /// Enumerates embeddings, invoking `cb` for each; stops early if `cb`
  /// returns false or after `limit` embeddings (0 = unlimited). Returns the
  /// number of embeddings visited.
  uint64_t Enumerate(const Pattern& p, std::span<const Anchor> anchors,
                     const EmbeddingCallback& cb, uint64_t limit = 0);

  const Graph& graph() const { return g_; }

  /// Attaches a shared read-only plan store. Probes consult it before the
  /// private one; a hit skips both the multiplicity expansion and the plan
  /// construction for that pattern.
  void set_plan_store(const SearchPlanStore* store) { plan_store_ = store; }

  /// Number of probes (`ProbeAt` calls included) whose plan came from the
  /// shared store.
  uint64_t plan_store_hits() const { return plan_store_hits_; }

  /// Number of search-tree nodes visited since construction (for benches).
  uint64_t nodes_visited() const { return nodes_visited_; }

  /// Number of patterns planned privately (for tests/benches).
  size_t plans_cached() const { return own_plans_.patterns_planned(); }

 private:
  /// Reusable per-search state: `ExistsAt` is called once per candidate
  /// center on the mining hot path, so the search must not pay a heap
  /// allocation per level per call.
  struct Scratch {
    std::vector<char> used;        ///< per graph node: mapped right now
    std::vector<NodeId> mapping;   ///< per expanded pattern node
    std::vector<NodeId> anchor_of; ///< per expanded pattern node, or invalid
    std::vector<std::vector<NodeId>> cand_bufs;  ///< per search level
    std::vector<PNodeId> anchored;      ///< per-call mapped anchors
    std::vector<PNodeId> anchored_key;  ///< canonical form of `anchored`
  };

  /// A pattern resolved for searching: its expansion and the plan for the
  /// anchored node set in `scratch_.anchored`.
  struct Resolved {
    const Pattern* expanded = nullptr;
    const SearchPlan* plan = nullptr;
    bool shared = false;  ///< the plan came from the shared store
  };

  /// Looks `p` up (shared store first, private one otherwise) and leaves
  /// the anchors' expanded ids in `scratch_.anchored`.
  Resolved Resolve(const Pattern& p, std::span<const Anchor> anchors);
  /// Readies the scratch for searches under `r`: anchor table (from
  /// `anchors`, matched up with `scratch_.anchored`), buffers, cleared
  /// mapping.
  void BeginSearch(const Resolved& r, std::span<const Anchor> anchors);
  /// Binds `p` anchored at its node `u` for `ProbeAt`.
  void BindNode(const Pattern& p, PNodeId u);

  /// The one backtracking body. `leaf(mapping)` runs per embedding and
  /// returns whether to continue; Extend returns false once it stopped.
  template <typename Leaf>
  bool Extend(const Pattern& p, const SearchPlan& plan, size_t level,
              Leaf& leaf);

  const Graph& g_;
  const SearchPlanStore* plan_store_ = nullptr;
  SearchPlanStore own_plans_;  ///< patterns the shared store lacks
  uint64_t plan_store_hits_ = 0;
  uint64_t nodes_visited_ = 0;
  Scratch scratch_;
  Resolved bound_;  ///< the `Bind` target; plan == nullptr when unbound
  PNodeId bound_node_ = kNoPatternNode;  ///< its anchored expanded node
};

}  // namespace gpar

#endif  // GPAR_MATCH_MATCHER_H_
