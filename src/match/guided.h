#ifndef GPAR_MATCH_GUIDED_H_
#define GPAR_MATCH_GUIDED_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/sketch.h"
#include "match/matcher.h"

namespace gpar {

/// Sketch-guided matcher (Section 5.2).
///
/// On top of the shared backtracking engine it adds:
///  * candidate filtering by k-hop sketch coverage — a candidate v cannot
///    match pattern node u unless v's neighborhood label counts dominate
///    u's at every hop prefix ("v' does not match u' if D_i - D'_i < 0");
///  * best-first candidate ordering by the slack score
///    f(u', v') = sum_i (D_i - D'_i), backtracking to the next-best
///    candidate on failure.
///
/// Graph-side sketches are computed lazily, one truncated BFS per *visited*
/// node, and memoized for the matcher's lifetime — nodes the search never
/// touches never pay for a sketch (crucial on large fragments, where an
/// eager index would dwarf the matching work itself). View-backed matchers
/// sketch the view-induced subgraph (BFS restricted to members), so
/// filtering and ordering match the induced subgraph exactly.
class GuidedMatcher : public Matcher {
 public:
  explicit GuidedMatcher(const Graph& g, uint32_t k = 2)
      : Matcher(g), k_(k) {}
  explicit GuidedMatcher(const GraphView& view, uint32_t k = 2)
      : Matcher(view), k_(k) {}
  GuidedMatcher(const Graph& g, const GraphView* view, uint32_t k = 2)
      : Matcher(g, view), k_(k) {}

  /// Number of node sketches materialized so far (for tests/benches).
  size_t sketches_built() const { return cache_.size(); }

  /// Attaches a shared read-only sketch store (serving: precomputed once
  /// per session, refreshed under deltas). `SketchOf` consults it before
  /// paying for a private BFS; the store is only used when its k matches
  /// this matcher's and the matcher is not view-restricted (stored sketches
  /// are whole-graph; a view-induced sketch differs).
  void set_sketch_store(const SketchStore* store) { sketch_store_ = store; }

  /// Number of sketch lookups answered by the shared store.
  uint64_t sketch_store_hits() const { return sketch_store_hits_; }

 protected:
  void PrepareForPattern(const Pattern& p) override;
  bool FilterCandidate(const Pattern& p, PNodeId u, NodeId v) override;
  void OrderCandidates(const Pattern& p, PNodeId u,
                       std::vector<NodeId>* cands) override;

 private:
  const KHopSketch& SketchOf(NodeId v);

  /// Sketch filtering/ordering only engages for candidate lists above this
  /// size: tiny pivot-derived lists are cheaper to try directly than to
  /// sketch (the BFS behind one sketch costs more than a failed extension).
  static constexpr size_t kSketchGate = 12;

  /// Pattern-side sketches, cached across queries (the same Σ patterns are
  /// probed at thousands of candidates).
  struct PatternSketches {
    Pattern pattern;
    std::vector<KHopSketch> sketches;
  };

  uint32_t k_;
  const SketchStore* sketch_store_ = nullptr;
  uint64_t sketch_store_hits_ = 0;
  std::unordered_map<NodeId, KHopSketch> cache_;
  std::unordered_map<uint64_t, std::vector<PatternSketches>> pattern_cache_;
  const std::vector<KHopSketch>* pattern_sketches_ = nullptr;  // current
  bool sketch_engaged_ = false;  // set per candidate list by OrderCandidates
};

/// Computes the k-hop sketch of a pattern node over the pattern itself
/// (undirected hops, labels weighted by multiplicity-expanded counts).
KHopSketch ComputePatternSketch(const Pattern& p, PNodeId u, uint32_t k);

}  // namespace gpar

#endif  // GPAR_MATCH_GUIDED_H_
