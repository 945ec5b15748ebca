#ifndef GPAR_TESTS_TEST_UTIL_H_
#define GPAR_TESTS_TEST_UTIL_H_

#include <cstddef>
#include <vector>

#include "graph/graph.h"
#include "pattern/pattern.h"

namespace gpar::test {

/// A designated-preserving isomorphic copy of `p`, built by reversing the
/// node declaration order: a structurally distinct object (different node
/// ids, hence a different StructuralHash in general) denoting the same
/// pattern. Exercises the automorphism/bisimulation merge paths.
inline Pattern ReversedIsomorphicCopy(const Pattern& p) {
  Pattern copy;
  std::vector<PNodeId> remap(p.num_nodes());
  for (PNodeId u = 0; u < p.num_nodes(); ++u) {
    PNodeId orig = static_cast<PNodeId>(p.num_nodes() - 1 - u);
    remap[orig] = copy.AddNode(p.node(orig).label, p.node(orig).multiplicity);
  }
  for (const PatternEdge& e : p.edges()) {
    copy.AddEdge(remap[e.src], e.label, remap[e.dst]);
  }
  copy.set_x(remap[p.x()]);
  if (p.has_y()) copy.set_y(remap[p.y()]);
  return copy;
}

/// Reference diff(R1, R2): the Jaccard distance of two sorted node lists by
/// a sorted merge. The library computes it from match bitsets
/// (`BitsetJaccardDistance`); tests hold every library result to this
/// oracle bit for bit. Two empty sets have distance 0.
inline double MergeJaccardDistance(const std::vector<NodeId>& a_sorted,
                                   const std::vector<NodeId>& b_sorted) {
  if (a_sorted.empty() && b_sorted.empty()) return 0;
  size_t inter = 0;
  size_t i = 0, j = 0;
  while (i < a_sorted.size() && j < b_sorted.size()) {
    if (a_sorted[i] < b_sorted[j]) {
      ++i;
    } else if (a_sorted[i] > b_sorted[j]) {
      ++j;
    } else {
      ++inter;
      ++i;
      ++j;
    }
  }
  size_t uni = a_sorted.size() + b_sorted.size() - inter;
  return 1.0 - static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace gpar::test

#endif  // GPAR_TESTS_TEST_UTIL_H_
