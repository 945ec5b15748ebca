#ifndef GPAR_GRAPH_GRAPH_H_
#define GPAR_GRAPH_GRAPH_H_

#include "common/require_cxx20.h"  // IWYU pragma: keep

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/interner.h"

namespace gpar {

/// Integer id of a graph node. Nodes are dense `[0, num_nodes)`.
using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// One directed adjacency entry: the other endpoint plus the edge label.
/// Stored sorted by (label, other) so per-label neighbor ranges and exact
/// edge membership are binary-searchable.
struct AdjEntry {
  LabelId label;
  NodeId other;

  friend bool operator==(const AdjEntry&, const AdjEntry&) = default;
  friend auto operator<=>(const AdjEntry& a, const AdjEntry& b) {
    if (auto c = a.label <=> b.label; c != 0) return c;
    return a.other <=> b.other;
  }
};

/// A single-edge pattern (both node labels plus the edge label) with its
/// frequency in a graph. These are the paper's "most frequent edge patterns,
/// i.e., graph patterns consisting of a single edge (with both node and edge
/// labels)" used as the growth alphabet for DMine (Section 6, Exp-1), and
/// the selectivity statistics search plans are ordered by.
struct EdgePatternStat {
  LabelId src_label;
  LabelId edge_label;
  LabelId dst_label;
  uint64_t count;

  friend bool operator==(const EdgePatternStat&,
                         const EdgePatternStat&) = default;
};

/// Orders edge-pattern stats by (source, edge, destination) label, ignoring
/// the count: the order of `Graph::edge_triples()`.
inline bool TripleLess(const EdgePatternStat& a, const EdgePatternStat& b) {
  if (a.src_label != b.src_label) return a.src_label < b.src_label;
  if (a.edge_label != b.edge_label) return a.edge_label < b.edge_label;
  return a.dst_label < b.dst_label;
}

/// Immutable labeled directed graph G = (V, E, L) — the paper's data model
/// (Section 2.1): finite node set, directed labeled edges, node labels that
/// carry either type names ("cust") or value bindings ("44").
///
/// Storage is CSR in both directions with label-sorted adjacency, plus an
/// inverted index from node label to the nodes carrying it and the edge
/// count of every (source label, edge label, destination label) triple
/// that occurs. Construct via
/// `GraphBuilder`; a built graph is immutable and safe for concurrent reads.
class Graph {
 public:
  Graph() : labels_(std::make_shared<Interner>()) {}

  NodeId num_nodes() const { return static_cast<NodeId>(node_labels_.size()); }
  size_t num_edges() const { return out_adj_.size(); }
  /// |G| = |V| + |E| (the paper's size measure).
  size_t size() const { return node_labels_.size() + out_adj_.size(); }

  LabelId node_label(NodeId v) const { return node_labels_[v]; }

  /// Outgoing adjacency of `v`, sorted by (edge label, destination).
  std::span<const AdjEntry> out_edges(NodeId v) const {
    return {out_adj_.data() + out_offsets_[v],
            out_offsets_[v + 1] - out_offsets_[v]};
  }
  /// Incoming adjacency of `v`, sorted by (edge label, source).
  std::span<const AdjEntry> in_edges(NodeId v) const {
    return {in_adj_.data() + in_offsets_[v],
            in_offsets_[v + 1] - in_offsets_[v]};
  }

  size_t out_degree(NodeId v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }
  size_t in_degree(NodeId v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }
  size_t degree(NodeId v) const { return out_degree(v) + in_degree(v); }

  /// Outgoing neighbors of `v` over edges labeled `elabel` (a contiguous
  /// slice of `out_edges(v)`).
  std::span<const AdjEntry> out_edges_labeled(NodeId v, LabelId elabel) const;
  /// Incoming counterpart of `out_edges_labeled`.
  std::span<const AdjEntry> in_edges_labeled(NodeId v, LabelId elabel) const;

  /// True iff edge (src --elabel--> dst) exists.
  bool HasEdge(NodeId src, LabelId elabel, NodeId dst) const;
  /// True iff `v` has at least one outgoing edge labeled `elabel`.
  bool HasOutLabel(NodeId v, LabelId elabel) const {
    return !out_edges_labeled(v, elabel).empty();
  }

  /// All nodes whose label is `label` (empty span if none).
  std::span<const NodeId> nodes_with_label(LabelId label) const;

  /// Number of nodes labeled `label`.
  size_t label_count(LabelId label) const {
    return nodes_with_label(label).size();
  }

  /// One entry per distinct (source label, edge label, destination label)
  /// triple of the graph's edges, with its edge count, sorted by the
  /// triple. A few hundred entries on real label sets: flat, never dense.
  std::span<const EdgePatternStat> edge_triples() const {
    return edge_triples_;
  }
  /// Number of edges labeled `elabel` from a `src_label` node to a
  /// `dst_label` node (0 if none): one binary search of `edge_triples()`.
  uint64_t edge_triple_count(LabelId src_label, LabelId elabel,
                             LabelId dst_label) const;

  /// Shared label dictionary. Patterns posed against this graph should
  /// intern their labels through the same dictionary.
  const Interner& labels() const { return *labels_; }
  const std::shared_ptr<Interner>& labels_ptr() const { return labels_; }
  Interner* mutable_labels() { return labels_.get(); }

 private:
  friend class GraphBuilder;
  // Internal accessor for the binary snapshot codec and the edge-delta
  // patcher (graph_raw_access.h): both assemble a Graph directly from CSR
  // arrays instead of replaying edge triples through the builder.
  friend struct GraphRawAccess;

  std::shared_ptr<Interner> labels_;
  std::vector<LabelId> node_labels_;
  std::vector<size_t> out_offsets_;  // size num_nodes()+1
  std::vector<AdjEntry> out_adj_;
  std::vector<size_t> in_offsets_;
  std::vector<AdjEntry> in_adj_;
  // label -> sorted node ids
  std::unordered_map<LabelId, std::vector<NodeId>> label_index_;
  std::vector<EdgePatternStat> edge_triples_;  // sorted by triple
};

}  // namespace gpar

#endif  // GPAR_GRAPH_GRAPH_H_
