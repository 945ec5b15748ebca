#ifndef GPAR_GRAPH_STATS_H_
#define GPAR_GRAPH_STATS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace gpar {

/// Returns edge-pattern statistics sorted by descending frequency, ties in
/// ascending (source, edge, destination) label order. If `limit` > 0 only
/// the `limit` most frequent are returned. A sort of the graph's stored
/// triple table (`Graph::edge_triples`), not a scan of its edges.
std::vector<EdgePatternStat> FrequentEdgePatterns(const Graph& g,
                                                  size_t limit = 0);

/// Aggregate degree statistics, used by partitioning heuristics and benches.
struct DegreeStats {
  double avg_degree = 0;
  size_t max_out_degree = 0;
  size_t max_in_degree = 0;
};
DegreeStats ComputeDegreeStats(const Graph& g);

}  // namespace gpar

#endif  // GPAR_GRAPH_STATS_H_
