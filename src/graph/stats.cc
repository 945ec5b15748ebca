#include "graph/stats.h"

#include <algorithm>

namespace gpar {

std::vector<EdgePatternStat> FrequentEdgePatterns(const Graph& g,
                                                  size_t limit) {
  const std::span<const EdgePatternStat> triples = g.edge_triples();
  std::vector<EdgePatternStat> out(triples.begin(), triples.end());
  std::stable_sort(out.begin(), out.end(),
                   [](const EdgePatternStat& a, const EdgePatternStat& b) {
                     return a.count > b.count;
                   });
  if (limit > 0 && out.size() > limit) out.resize(limit);
  return out;
}

DegreeStats ComputeDegreeStats(const Graph& g) {
  DegreeStats s;
  if (g.num_nodes() == 0) return s;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    s.max_out_degree = std::max(s.max_out_degree, g.out_degree(v));
    s.max_in_degree = std::max(s.max_in_degree, g.in_degree(v));
  }
  s.avg_degree = 2.0 * static_cast<double>(g.num_edges()) /
                 static_cast<double>(g.num_nodes());
  return s;
}

}  // namespace gpar
