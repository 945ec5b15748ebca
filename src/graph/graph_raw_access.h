#ifndef GPAR_GRAPH_GRAPH_RAW_ACCESS_H_
#define GPAR_GRAPH_GRAPH_RAW_ACCESS_H_

#include <memory>
#include <unordered_map>
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
/// assembly routine of `GraphBuilder::Build` and the snapshot reader, so a
/// graph assembled by either is bit-identical given the same out-CSR and
/// labels. The delta patcher instead patches a graph's derived storage in
/// place of rebuilding it (`GraphDeltaTest.*EqualsRebuilt` holds it to a
/// rebuild).
struct GraphRawAccess {
  static std::shared_ptr<Interner>& labels(Graph& g) { return g.labels_; }
  static std::vector<LabelId>& node_labels(Graph& g) { return g.node_labels_; }
  static std::vector<size_t>& out_offsets(Graph& g) { return g.out_offsets_; }
  static std::vector<AdjEntry>& out_adj(Graph& g) { return g.out_adj_; }

  static std::vector<size_t>& in_offsets(Graph& g) { return g.in_offsets_; }
  static std::vector<AdjEntry>& in_adj(Graph& g) { return g.in_adj_; }
  static std::unordered_map<LabelId, std::vector<NodeId>>& label_index(
      Graph& g) {
    return g.label_index_;
  }
  static std::vector<EdgePatternStat>& edge_triples(Graph& g) {
    return g.edge_triples_;
  }

  static const std::vector<LabelId>& node_labels(const Graph& g) {
    return g.node_labels_;
  }
  static const std::vector<size_t>& out_offsets(const Graph& g) {
    return g.out_offsets_;
  }
  static const std::vector<AdjEntry>& out_adj(const Graph& g) {
    return g.out_adj_;
  }
  static const std::vector<size_t>& in_offsets(const Graph& g) {
    return g.in_offsets_;
  }
  static const std::vector<AdjEntry>& in_adj(const Graph& g) {
    return g.in_adj_;
  }
  static const std::unordered_map<LabelId, std::vector<NodeId>>& label_index(
      const Graph& g) {
    return g.label_index_;
  }

  /// Rebuilds in-CSR (counting sort by destination, then per-node sort by
  /// (label, src)), the label inverted index and the edge triple table
  /// from the out-CSR. The out-CSR fields and `node_labels_` must be fully
  /// populated.
  static void FinishFromOutCsr(Graph& g);
};

}  // namespace gpar

#endif  // GPAR_GRAPH_GRAPH_RAW_ACCESS_H_
