#include "graph/graph_builder.h"

#include <algorithm>
#include <utility>

#include "graph/graph_raw_access.h"

namespace gpar {

Status GraphBuilder::AddEdge(NodeId src, LabelId label, NodeId dst) {
  if (src >= node_labels_.size() || dst >= node_labels_.size()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  edges_.push_back({src, label, dst});
  return Status::OK();
}

void GraphRawAccess::FinishFromOutCsr(Graph& g) {
  const NodeId n = g.num_nodes();
  const auto& out_adj = g.out_adj_;
  const auto& out_offsets = g.out_offsets_;

  // In-CSR: counting sort by dst, then per-node sort by (label, src).
  g.in_offsets_.assign(n + 1, 0);
  for (const AdjEntry& e : out_adj) g.in_offsets_[e.other + 1]++;
  for (NodeId v = 0; v < n; ++v) g.in_offsets_[v + 1] += g.in_offsets_[v];
  g.in_adj_.assign(out_adj.size(), AdjEntry{});
  {
    std::vector<size_t> cursor(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
    for (NodeId src = 0; src < n; ++src) {
      for (size_t i = out_offsets[src]; i < out_offsets[src + 1]; ++i) {
        g.in_adj_[cursor[out_adj[i].other]++] = {out_adj[i].label, src};
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      std::sort(g.in_adj_.begin() + g.in_offsets_[v],
                g.in_adj_.begin() + g.in_offsets_[v + 1]);
    }
  }

  // Label inverted index (node ids ascend naturally).
  g.label_index_.clear();
  for (NodeId v = 0; v < n; ++v) {
    g.label_index_[g.node_labels_[v]].push_back(v);
  }

  // Edge triple table: counted in an open-addressing table (distinct
  // triples number in the hundreds, so it stays in cache), then laid out
  // sorted. A slot with count 0 is empty.
  auto slot_of = [](std::vector<EdgePatternStat>& table, LabelId s, LabelId e,
                    LabelId d) -> EdgePatternStat& {
    const uint64_t h = (uint64_t{s} * 0x9e3779b97f4a7c15ull) ^
                       (uint64_t{e} * 0xbf58476d1ce4e5b9ull) ^
                       (uint64_t{d} * 0x94d049bb133111ebull);
    const size_t mask = table.size() - 1;
    for (size_t i = (h >> 32) & mask;; i = (i + 1) & mask) {
      EdgePatternStat& slot = table[i];
      if (slot.count == 0 || (slot.src_label == s && slot.edge_label == e &&
                              slot.dst_label == d)) {
        return slot;
      }
    }
  };
  std::vector<EdgePatternStat> slots(256, EdgePatternStat{0, 0, 0, 0});
  size_t distinct = 0;
  for (NodeId src = 0; src < n; ++src) {
    const LabelId s = g.node_labels_[src];
    for (size_t i = out_offsets[src]; i < out_offsets[src + 1]; ++i) {
      const LabelId e = out_adj[i].label;
      const LabelId d = g.node_labels_[out_adj[i].other];
      EdgePatternStat& slot = slot_of(slots, s, e, d);
      if (slot.count++ != 0) continue;
      slot.src_label = s;
      slot.edge_label = e;
      slot.dst_label = d;
      if (2 * ++distinct <= slots.size()) continue;
      std::vector<EdgePatternStat> grown(2 * slots.size(),
                                         EdgePatternStat{0, 0, 0, 0});
      for (const EdgePatternStat& t : slots) {
        if (t.count != 0) {
          slot_of(grown, t.src_label, t.edge_label, t.dst_label) = t;
        }
      }
      slots = std::move(grown);
    }
  }
  g.edge_triples_.clear();
  g.edge_triples_.reserve(distinct);
  for (const EdgePatternStat& t : slots) {
    if (t.count != 0) g.edge_triples_.push_back(t);
  }
  std::sort(g.edge_triples_.begin(), g.edge_triples_.end(), TripleLess);
}

Graph GraphBuilder::Build() && {
  Graph g;
  g.labels_ = std::move(labels_);
  g.node_labels_ = std::move(node_labels_);
  const NodeId n = static_cast<NodeId>(g.node_labels_.size());

  // Deduplicate (src, label, dst) triples.
  std::sort(edges_.begin(), edges_.end(),
            [](const PendingEdge& a, const PendingEdge& b) {
              if (a.src != b.src) return a.src < b.src;
              if (a.label != b.label) return a.label < b.label;
              return a.dst < b.dst;
            });
  edges_.erase(std::unique(edges_.begin(), edges_.end(),
                           [](const PendingEdge& a, const PendingEdge& b) {
                             return a.src == b.src && a.label == b.label &&
                                    a.dst == b.dst;
                           }),
               edges_.end());

  // Out-CSR: edges_ is already sorted by (src, label, dst).
  g.out_offsets_.assign(n + 1, 0);
  for (const PendingEdge& e : edges_) g.out_offsets_[e.src + 1]++;
  for (NodeId v = 0; v < n; ++v) g.out_offsets_[v + 1] += g.out_offsets_[v];
  g.out_adj_.resize(edges_.size());
  {
    std::vector<size_t> cursor(g.out_offsets_.begin(), g.out_offsets_.end() - 1);
    for (const PendingEdge& e : edges_) {
      g.out_adj_[cursor[e.src]++] = {e.label, e.dst};
    }
  }

  GraphRawAccess::FinishFromOutCsr(g);
  edges_.clear();
  return g;
}

}  // namespace gpar
