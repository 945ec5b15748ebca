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
/// match of an owned center already lies inside F_i, so neither a
/// membership filter nor the node set is needed to mine or serve.
/// `FragmentNodes` derives F_i on demand for balance (Exp-4) and for the
/// locality tests.
struct Fragment {
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

/// Partitions the ownership of `centers` (candidate nodes v_x) in `g`.
///
/// Centers are assigned greedily in descending estimated-work order to the
/// least loaded fragment (load = sum of exact |N_d| sizes), which bounds
/// fragment skew — the paper reports <= 14.4% max-min gap with a
/// comparable balanced partitioner [36]. Each fragment's node set is the
/// union of the owned centers' N_d sets (replication at borders), so
/// fragments overlap but center ownership is disjoint, making local
/// supports directly summable.
///
/// The |N_d| weights come from a parallel sweep: the centers are split
/// into contiguous ranges, one per thread of a transient pool of
/// min(num_fragments, hardware threads) threads; each range runs its
/// centers' depth-d BFSs with its own flat stamp array and frontier pair
/// and writes only its own slice of the weights. The weights are exact, so
/// the assignment does not depend on the thread count. No node set is
/// built here; `FragmentNodes` derives one when it is wanted.
Result<Partitioning> PartitionGraph(const Graph& g,
                                    const std::vector<NodeId>& centers,
                                    const PartitionOptions& options);

/// F_i of `fragment` at radius `d`: the union of its owned centers' N_d
/// sets, as ascending global ids. One multi-source BFS to depth d from the
/// owned centers over out- and in-edges.
std::vector<NodeId> FragmentNodes(const Graph& g, const Fragment& fragment,
                                  uint32_t d);

/// Measures balance of a partitioning of `g` at radius `d`: (max fragment
/// size - min fragment size) / max, in [0, 1], where a fragment's size is
/// |V_f| + |E_f| of the subgraph `g` induces on its `FragmentNodes`; 0 is
/// perfectly even. Used by the Exp-4 skew bench.
double FragmentSkew(const Graph& g, const Partitioning& p, uint32_t d);

}  // namespace gpar

#endif  // GPAR_GRAPH_PARTITION_H_
