#ifndef GPAR_GRAPH_GRAPH_RAW_ACCESS_H_
#define GPAR_GRAPH_GRAPH_RAW_ACCESS_H_

#include <memory>
#include <vector>

#include "graph/graph.h"

namespace gpar {

/// Internal backdoor into `Graph`'s CSR storage, shared by the binary
/// snapshot codec (graph_snapshot.cc) and the edge-delta patcher
/// (graph_delta.cc). Not part of the public graph API: everything here
/// assumes the caller maintains the class invariants — out-adjacency sorted
/// by (label, other) within each node's slice, offsets monotone with
/// `offsets[num_nodes] == adj.size()`.
///
/// `FinishFromOutCsr` derives the remaining storage (in-CSR, the label
/// inverted index and the edge triple table) from the out-CSR; it is the
/// single assembly routine used by `GraphBuilder::Build`, the snapshot
/// reader, and the delta patcher, so a graph assembled from any of them is
/// bit-identical given the same out-CSR and labels.
struct GraphRawAccess {
  static std::shared_ptr<Interner>& labels(Graph& g) { return g.labels_; }
  static std::vector<LabelId>& node_labels(Graph& g) { return g.node_labels_; }
  static std::vector<size_t>& out_offsets(Graph& g) { return g.out_offsets_; }
  static std::vector<AdjEntry>& out_adj(Graph& g) { return g.out_adj_; }

  static const std::vector<LabelId>& node_labels(const Graph& g) {
    return g.node_labels_;
  }
  static const std::vector<size_t>& out_offsets(const Graph& g) {
    return g.out_offsets_;
  }
  static const std::vector<AdjEntry>& out_adj(const Graph& g) {
    return g.out_adj_;
  }

  /// Rebuilds in-CSR (counting sort by destination, then per-node sort by
  /// (label, src)), the label inverted index and the edge triple table
  /// from the out-CSR. The out-CSR fields and `node_labels_` must be fully
  /// populated.
  static void FinishFromOutCsr(Graph& g);
};

}  // namespace gpar

#endif  // GPAR_GRAPH_GRAPH_RAW_ACCESS_H_
