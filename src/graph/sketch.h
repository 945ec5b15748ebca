#ifndef GPAR_GRAPH_SKETCH_H_
#define GPAR_GRAPH_SKETCH_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_view.h"

namespace gpar {

/// Label frequency distribution at one hop distance: sorted (label, count)
/// pairs. Sorted order makes coverage checks a linear merge.
using HopDistribution = std::vector<std::pair<LabelId, uint32_t>>;

/// k-hop neighborhood sketch K(v) = {(1, D_1), ..., (k, D_k)} where D_i is
/// the distribution of node labels at (undirected) hop i of v — the guided
/// search index of Section 5.2.
struct KHopSketch {
  std::vector<HopDistribution> hops;  // hops[i] = D_{i+1}
};

/// Per-node sketches over a whole graph.
///
/// `Build` performs one truncated BFS per node; cost O(|V| * avg |N_k|).
/// Designed for fragment-local graphs (d-neighborhood unions), where N_k is
/// small (98% of real-life patterns have radius 1, 1.8% radius 2 — §4.2).
class SketchIndex {
 public:
  SketchIndex() = default;

  /// Builds k-hop sketches for every node of `g`.
  static SketchIndex Build(const Graph& g, uint32_t k);

  uint32_t k() const { return k_; }
  const KHopSketch& of(NodeId v) const { return sketches_[v]; }
  size_t size() const { return sketches_.size(); }

 private:
  uint32_t k_ = 0;
  std::vector<KHopSketch> sketches_;
};

/// Read-only shared store of *accumulated* node sketches — the serving
/// counterpart of `SearchPlanStore`: a `RuleServer` precomputes sketches
/// for the nodes rule patterns can touch once at load, and every worker's
/// `GuidedMatcher` consults the store before paying for a private BFS
/// (`GuidedMatcher::set_sketch_store`).
///
/// Concurrency contract: `Add`/`Refresh` are single-threaded (load time or
/// between requests); `Find` is lock-free and safe from any number of
/// threads once population is done. Under edge deltas, stored sketches of
/// nodes within k hops of an inserted edge's endpoints go stale and MUST be
/// refreshed — a stale sketch under-counts and would wrongly prune a
/// now-valid candidate.
class SketchStore {
 public:
  explicit SketchStore(uint32_t k) : k_(k) {}

  /// Computes and stores the sketch of `v` over `g` (idempotent).
  void Add(const Graph& g, NodeId v);

  /// The stored accumulated sketch of `v`, or nullptr if never added.
  const KHopSketch* Find(NodeId v) const;

  /// Recomputes the stored sketches among `nodes` over (the current state
  /// of) `g`; nodes not in the store are ignored. Returns the number of
  /// sketches recomputed — the delta-maintenance cost counter.
  size_t Refresh(const Graph& g, std::span<const NodeId> nodes);

  uint32_t k() const { return k_; }
  size_t size() const { return sketches_.size(); }

 private:
  uint32_t k_;
  std::unordered_map<NodeId, KHopSketch> sketches_;
};

/// Computes the sketch of a single node (used for pattern nodes, where the
/// "graph" is the pattern itself).
KHopSketch ComputeSketch(const Graph& g, NodeId v, uint32_t k);

/// As above, with the BFS restricted to `view` members: the sketch of `v`
/// in the subgraph the view induces, so view-backed guided matching filters
/// and orders candidates exactly as it would on the induced subgraph.
KHopSketch ComputeSketch(const GraphView& view, NodeId v, uint32_t k);

/// True iff `graph_side` dominates `pattern_side`: for every hop i <= k and
/// every label, the graph node has at least as many occurrences as the
/// pattern node requires. A candidate failing this cannot match (Section
/// 5.2: "v' does not match u' if for some i, D_i - D'_i < 0").
///
/// Note this is a *cumulative* check: pattern nodes at hop i may map to
/// graph nodes at hop <= i, so we compare prefix-accumulated counts; the
/// plain per-hop check would wrongly reject valid candidates.
bool SketchCovers(const KHopSketch& graph_side, const KHopSketch& pattern_side);

/// Guided-search score f(u', v') = sum_i (D_i - D'_i): total slack of the
/// graph node's label budget over the pattern's requirement. Larger score =
/// more likely to match (Section 5.2). Returns a negative value if coverage
/// fails.
int64_t SketchScore(const KHopSketch& graph_side,
                    const KHopSketch& pattern_side);

/// Converts a sketch to prefix-accumulated form: hops[i] holds the label
/// counts within distance i+1 (not exactly i+1). Comparisons on
/// accumulated sketches are allocation-free linear merges — the fast path
/// the guided matcher uses on its hot loop.
KHopSketch AccumulateSketch(const KHopSketch& sketch);

/// `SketchCovers` for sketches already in accumulated form.
bool SketchCoversAccumulated(const KHopSketch& graph_acc,
                             const KHopSketch& pattern_acc);

/// `SketchScore` for sketches already in accumulated form.
int64_t SketchScoreAccumulated(const KHopSketch& graph_acc,
                               const KHopSketch& pattern_acc);

}  // namespace gpar

#endif  // GPAR_GRAPH_SKETCH_H_
