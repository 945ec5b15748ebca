#ifndef GPAR_GRAPH_PARTITION_H_
#define GPAR_GRAPH_PARTITION_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"

namespace gpar {

/// One fragment F_i of a partitioned graph (Sections 4.2 / 5.1).
///
/// A fragment owns a disjoint subset of the *center* nodes (the candidates
/// v_x); its node set F_i is the union of their d-neighbor sets N_d(v_x),
/// so `G_d(v_x)` lies inside the fragment for every owned center — the
/// data-locality invariant both DMine and Matchc rely on. Support counting
/// only ever iterates `centers`, so local supports sum across fragments.
///
/// Workers match owned centers on the parent graph itself: by locality
/// (v ∈ P_R(x, G) iff v ∈ P_R(x, G_d(v)) for rules of radius <= d), every
/// match of an owned center already lies inside F_i, so no membership
/// filter is needed. `nodes` records F_i for balance (Exp-4) and for the
/// locality tests.
struct Fragment {
  std::vector<NodeId> nodes;    // F_i: global ids, sorted
  std::vector<NodeId> centers;  // global ids of owned centers, sorted
};

/// A full partitioning of (G, centers) into fragments.
struct Partitioning {
  std::vector<Fragment> fragments;
  /// fragment index owning each input center (parallel to the input span).
  std::vector<uint32_t> owner_of_center;
};

/// Options for `PartitionGraph`.
struct PartitionOptions {
  uint32_t num_fragments = 4;
  uint32_t d = 2;  ///< locality radius: G_d(center) kept within its fragment
};

/// Partitions `g` for the given `centers` (candidate nodes v_x).
///
/// Centers are assigned greedily in descending estimated-work order to the
/// least loaded fragment (load = sum of |N_d| sizes), which bounds fragment
/// skew — the paper reports <= 14.4% max-min gap with a comparable balanced
/// partitioner [36]. Each fragment's node set is the union of the owned
/// centers' N_d sets (replication at borders), so fragments overlap but
/// center ownership is disjoint, making local supports directly summable.
///
/// The build is a single multi-source BFS sweep: one frontier pass tags
/// every node with the (center, distance) pairs that reach it within d,
/// which yields exact |N_d| weights for the LPT assignment and sorted
/// fragment node sets in one near-linear pass — no per-center BFS, no set
/// unions, and no induced-CSR rebuild.
Result<Partitioning> PartitionGraph(const Graph& g,
                                    const std::vector<NodeId>& centers,
                                    const PartitionOptions& options);

/// Measures balance of a partitioning of `g`: (max fragment size - min
/// fragment size) / max, in [0, 1], where a fragment's size is |V_f| +
/// |E_f| of the subgraph `g` induces on its nodes; 0 is perfectly even.
/// Used by the Exp-4 skew bench.
double FragmentSkew(const Graph& g, const Partitioning& p);

}  // namespace gpar

#endif  // GPAR_GRAPH_PARTITION_H_
