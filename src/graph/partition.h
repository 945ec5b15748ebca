#ifndef GPAR_GRAPH_PARTITION_H_
#define GPAR_GRAPH_PARTITION_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "graph/neighborhood.h"

namespace gpar {

/// One fragment F_i of a partitioned graph (Sections 4.2 / 5.1).
///
/// A fragment owns a disjoint subset of the *center* nodes (the candidates
/// v_x) and covers the subgraph induced by the union of their d-neighbor
/// sets N_d(v_x), so `G_d(v_x)` is fully contained in the fragment for every
/// owned center — the data-locality invariant both DMine and Matchc rely on.
/// Border (replicated) nodes are present for matching but never counted
/// toward support: support counting only ever iterates `centers`.
///
/// Representation: the fragment is a zero-copy `GraphView` over the parent
/// CSR — matching runs on global ids, so match evidence is globally
/// addressed by construction and border replication costs one id-list entry
/// per node, not a CSR copy.
struct Fragment {
  GraphView view;
  std::vector<NodeId> centers;  // GLOBAL ids of owned centers
  /// Per owned center: nonzero iff the center's N_d can still grow — some
  /// node at hop exactly d has an incident edge leaving N_d. 0 means the
  /// d-neighborhood is saturated (it is the whole reachable component).
  std::vector<uint32_t> center_hops_available;

  /// Bytes held by the fragment (view id-lists + bitmap + center lists) —
  /// the Exp-4 memory column.
  size_t MemoryBytes() const;
};

/// A full partitioning of (G, centers) into fragments.
struct Partitioning {
  std::vector<Fragment> fragments;
  uint32_t d = 0;
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
/// which yields exact |N_d| weights for the LPT assignment, the
/// extendable-past-d signal, and sorted fragment membership lists in one
/// near-linear pass — no per-center BFS, no set unions, and no induced-CSR
/// rebuild.
Result<Partitioning> PartitionGraph(const Graph& g,
                                    const std::vector<NodeId>& centers,
                                    const PartitionOptions& options);

/// Measures balance: (max fragment size - min fragment size) / max, in
/// [0, 1]; 0 is perfectly even. Used by the Exp-4 skew bench.
double FragmentSkew(const Partitioning& p);

/// Total `Fragment::MemoryBytes()` across fragments — the Exp-4 memory
/// column.
size_t PartitionMemoryBytes(const Partitioning& p);

}  // namespace gpar

#endif  // GPAR_GRAPH_PARTITION_H_
