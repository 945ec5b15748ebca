#ifndef GPAR_GRAPH_NEIGHBORHOOD_H_
#define GPAR_GRAPH_NEIGHBORHOOD_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace gpar {

/// Computes N_r(v): all nodes within undirected distance `r` of `v`
/// (including `v` itself), in BFS order. This is the paper's d-neighbor
/// basis: `G_d(v_x)` is the subgraph induced by N_d(v_x).
std::vector<NodeId> NodesWithinRadius(const Graph& g, NodeId v, uint32_t r);

/// As above but also reports each node's distance from `v`.
std::vector<NodeId> NodesWithinRadius(const Graph& g, NodeId v, uint32_t r,
                                      std::vector<uint32_t>* distances);

/// Distance-bounded invalidation support: for every node within undirected
/// distance `radius` of any source, its distance to the nearest source.
/// One multi-source BFS over out- and in-edges; pairs are returned in BFS
/// order (sources first; out-of-range sources are skipped). It finds the
/// delta-affected region (`DeltaAffectedRegion`, locality, Section 5.1:
/// membership of v depends only on G_d(v)) and a fragment's node set
/// (`FragmentNodes`).
std::vector<std::pair<NodeId, uint32_t>> NodesWithinRadiusOfAny(
    const Graph& g, std::span<const NodeId> sources, uint32_t radius);

/// A subgraph induced by a node set, carrying the local<->global id maps.
struct InducedSubgraph {
  Graph graph;
  std::vector<NodeId> to_global;                 // local id -> global id
  std::unordered_map<NodeId, NodeId> to_local;   // global id -> local id
};

/// Builds the subgraph of `g` induced by `nodes` (edges with both endpoints
/// in the set). The label dictionary is shared with `g`.
InducedSubgraph BuildInducedSubgraph(const Graph& g,
                                     const std::vector<NodeId>& nodes);

/// Extracts G_d(v): the subgraph induced by N_d(v). `center_local` is the
/// local id of `v` in the extracted graph.
struct DNeighborhood {
  InducedSubgraph sub;
  NodeId center_local;
};
DNeighborhood ExtractDNeighborhood(const Graph& g, NodeId v, uint32_t d);

}  // namespace gpar

#endif  // GPAR_GRAPH_NEIGHBORHOOD_H_
