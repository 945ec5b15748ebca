#include "graph/neighborhood.h"

#include <deque>

#include "graph/graph_builder.h"

namespace gpar {

std::vector<NodeId> NodesWithinRadius(const Graph& g, NodeId v, uint32_t r) {
  return NodesWithinRadius(g, v, r, nullptr);
}

std::vector<NodeId> NodesWithinRadius(const Graph& g, NodeId v, uint32_t r,
                                      std::vector<uint32_t>* distances) {
  std::vector<NodeId> order;
  std::unordered_map<NodeId, uint32_t> dist;
  std::deque<NodeId> frontier;
  order.push_back(v);
  dist.emplace(v, 0);
  frontier.push_back(v);
  while (!frontier.empty()) {
    NodeId u = frontier.front();
    frontier.pop_front();
    uint32_t du = dist[u];
    if (du == r) continue;
    auto visit = [&](NodeId w) {
      if (dist.emplace(w, du + 1).second) {
        order.push_back(w);
        frontier.push_back(w);
      }
    };
    for (const AdjEntry& e : g.out_edges(u)) visit(e.other);
    for (const AdjEntry& e : g.in_edges(u)) visit(e.other);
  }
  if (distances != nullptr) {
    distances->clear();
    distances->reserve(order.size());
    for (NodeId u : order) distances->push_back(dist[u]);
  }
  return order;
}

std::vector<std::pair<NodeId, uint32_t>> NodesWithinRadiusOfAny(
    const Graph& g, std::span<const NodeId> sources, uint32_t radius) {
  std::vector<std::pair<NodeId, uint32_t>> out;
  std::vector<uint32_t> dist(g.num_nodes(), static_cast<uint32_t>(-1));
  std::deque<NodeId> frontier;
  for (NodeId s : sources) {
    if (s < g.num_nodes() && dist[s] == static_cast<uint32_t>(-1)) {
      dist[s] = 0;
      frontier.push_back(s);
      out.emplace_back(s, 0);
    }
  }
  while (!frontier.empty()) {
    NodeId v = frontier.front();
    frontier.pop_front();
    if (dist[v] == radius) continue;
    auto visit = [&](NodeId w) {
      if (dist[w] == static_cast<uint32_t>(-1)) {
        dist[w] = dist[v] + 1;
        frontier.push_back(w);
        out.emplace_back(w, dist[w]);
      }
    };
    for (const AdjEntry& e : g.out_edges(v)) visit(e.other);
    for (const AdjEntry& e : g.in_edges(v)) visit(e.other);
  }
  return out;
}

InducedSubgraph BuildInducedSubgraph(const Graph& g,
                                     const std::vector<NodeId>& nodes) {
  InducedSubgraph out;
  GraphBuilder builder(g.labels_ptr());
  out.to_global = nodes;
  out.to_local.reserve(nodes.size() * 2);
  for (NodeId v : nodes) {
    NodeId local = builder.AddNode(g.node_label(v));
    out.to_local.emplace(v, local);
  }
  for (NodeId v : nodes) {
    NodeId src_local = out.to_local[v];
    for (const AdjEntry& e : g.out_edges(v)) {
      auto it = out.to_local.find(e.other);
      if (it != out.to_local.end()) {
        builder.AddEdgeUnchecked(src_local, e.label, it->second);
      }
    }
  }
  out.graph = std::move(builder).Build();
  return out;
}

DNeighborhood ExtractDNeighborhood(const Graph& g, NodeId v, uint32_t d) {
  DNeighborhood out;
  std::vector<NodeId> nodes = NodesWithinRadius(g, v, d);
  out.sub = BuildInducedSubgraph(g, nodes);
  out.center_local = out.sub.to_local.at(v);
  return out;
}

}  // namespace gpar
