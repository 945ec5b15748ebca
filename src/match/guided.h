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
///
/// `k` is the sketch radius. 1 is the robust default: on scale-free graphs
/// a 2-hop sketch costs a hub-sized BFS per scored node, which can exceed
/// the matching work it saves (k = 2 pays off for highly selective
/// patterns on sparse graphs).
class GuidedMatcher : public Matcher {
 public:
  explicit GuidedMatcher(const Graph& g, uint32_t k = 1)
      : Matcher(g), k_(k) {}
  explicit GuidedMatcher(const GraphView& view, uint32_t k = 1)
      : Matcher(view), k_(k) {}
  GuidedMatcher(const Graph& g, const GraphView* view, uint32_t k = 1)
      : Matcher(g, view), k_(k) {}

  /// Number of node sketches materialized so far (for tests/benches).
  size_t sketches_built() const { return cache_.size(); }

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
