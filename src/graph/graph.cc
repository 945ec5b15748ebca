#include "graph/graph.h"

#include <algorithm>

namespace gpar {

namespace {

std::span<const AdjEntry> LabeledSlice(std::span<const AdjEntry> adj,
                                       LabelId elabel) {
  // Adjacency is sorted by (label, other): the slice for one label is the
  // equal_range over the label component.
  auto lo = std::lower_bound(
      adj.begin(), adj.end(), elabel,
      [](const AdjEntry& e, LabelId l) { return e.label < l; });
  auto hi = std::upper_bound(
      adj.begin(), adj.end(), elabel,
      [](LabelId l, const AdjEntry& e) { return l < e.label; });
  return adj.subspan(lo - adj.begin(), hi - lo);
}

}  // namespace

std::span<const AdjEntry> Graph::out_edges_labeled(NodeId v,
                                                   LabelId elabel) const {
  return LabeledSlice(out_edges(v), elabel);
}

std::span<const AdjEntry> Graph::in_edges_labeled(NodeId v,
                                                  LabelId elabel) const {
  return LabeledSlice(in_edges(v), elabel);
}

bool Graph::HasEdge(NodeId src, LabelId elabel, NodeId dst) const {
  auto adj = out_edges(src);
  return std::binary_search(adj.begin(), adj.end(), AdjEntry{elabel, dst});
}

uint64_t Graph::edge_triple_count(LabelId src_label, LabelId elabel,
                                  LabelId dst_label) const {
  const EdgePatternStat key{src_label, elabel, dst_label, 0};
  auto it = std::lower_bound(edge_triples_.begin(), edge_triples_.end(), key,
                             TripleLess);
  if (it == edge_triples_.end() || TripleLess(key, *it)) return 0;
  return it->count;
}

std::span<const NodeId> Graph::nodes_with_label(LabelId label) const {
  auto it = label_index_.find(label);
  if (it == label_index_.end()) return {};
  return {it->second.data(), it->second.size()};
}

}  // namespace gpar
