#include "graph/sketch.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

namespace gpar {

namespace {

/// Accumulates hops[0..i] into a single distribution (labels within hop i+1).
HopDistribution AccumulatePrefix(const KHopSketch& sk, size_t upto) {
  std::unordered_map<LabelId, uint32_t> acc;
  for (size_t i = 0; i <= upto && i < sk.hops.size(); ++i) {
    for (const auto& [label, count] : sk.hops[i]) acc[label] += count;
  }
  HopDistribution out(acc.begin(), acc.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// Returns (covered, slack): covered = every pattern label count is met;
/// slack = sum over labels of (graph count - pattern count) for labels the
/// pattern mentions, plus graph-only surplus.
std::pair<bool, int64_t> CompareDistributions(const HopDistribution& graph_d,
                                              const HopDistribution& pat_d) {
  bool covered = true;
  int64_t slack = 0;
  size_t gi = 0;
  for (const auto& [label, need] : pat_d) {
    while (gi < graph_d.size() && graph_d[gi].first < label) {
      slack += graph_d[gi].second;
      ++gi;
    }
    uint32_t have = 0;
    if (gi < graph_d.size() && graph_d[gi].first == label) {
      have = graph_d[gi].second;
      ++gi;
    }
    if (have < need) covered = false;
    slack += static_cast<int64_t>(have) - static_cast<int64_t>(need);
  }
  while (gi < graph_d.size()) {
    slack += graph_d[gi].second;
    ++gi;
  }
  return {covered, slack};
}

}  // namespace

namespace {

/// Shared truncated-BFS core: `admit(w)` gates which neighbors the sketch
/// may traverse (always-true for whole graphs, membership for views).
template <typename Admit>
KHopSketch ComputeSketchFiltered(const Graph& g, NodeId v, uint32_t k,
                                 const Admit& admit) {
  KHopSketch sk;
  sk.hops.resize(k);
  std::unordered_map<NodeId, uint32_t> dist;
  std::deque<NodeId> frontier{v};
  dist.emplace(v, 0);
  while (!frontier.empty()) {
    NodeId u = frontier.front();
    frontier.pop_front();
    uint32_t du = dist[u];
    if (du == k) continue;
    auto visit = [&](NodeId w) {
      if (!admit(w)) return;
      if (dist.emplace(w, du + 1).second) frontier.push_back(w);
    };
    for (const AdjEntry& e : g.out_edges(u)) visit(e.other);
    for (const AdjEntry& e : g.in_edges(u)) visit(e.other);
  }
  std::vector<std::unordered_map<LabelId, uint32_t>> per_hop(k);
  for (const auto& [node, d] : dist) {
    if (d == 0) continue;
    per_hop[d - 1][g.node_label(node)]++;
  }
  for (uint32_t i = 0; i < k; ++i) {
    sk.hops[i].assign(per_hop[i].begin(), per_hop[i].end());
    std::sort(sk.hops[i].begin(), sk.hops[i].end());
  }
  return sk;
}

}  // namespace

KHopSketch ComputeSketch(const Graph& g, NodeId v, uint32_t k) {
  return ComputeSketchFiltered(g, v, k, [](NodeId) { return true; });
}

KHopSketch ComputeSketch(const GraphView& view, NodeId v, uint32_t k) {
  return ComputeSketchFiltered(view.parent(), v, k,
                               [&](NodeId w) { return view.contains(w); });
}

bool SketchCovers(const KHopSketch& graph_side,
                  const KHopSketch& pattern_side) {
  const size_t hops = pattern_side.hops.size();
  for (size_t i = 0; i < hops; ++i) {
    HopDistribution g_acc = AccumulatePrefix(graph_side, i);
    HopDistribution p_acc = AccumulatePrefix(pattern_side, i);
    auto [covered, slack] = CompareDistributions(g_acc, p_acc);
    (void)slack;
    if (!covered) return false;
  }
  return true;
}

int64_t SketchScore(const KHopSketch& graph_side,
                    const KHopSketch& pattern_side) {
  const size_t hops = pattern_side.hops.size();
  int64_t total = 0;
  for (size_t i = 0; i < hops; ++i) {
    HopDistribution g_acc = AccumulatePrefix(graph_side, i);
    HopDistribution p_acc = AccumulatePrefix(pattern_side, i);
    auto [covered, slack] = CompareDistributions(g_acc, p_acc);
    if (!covered) return -1;
    total += slack;
  }
  return total;
}

KHopSketch AccumulateSketch(const KHopSketch& sketch) {
  KHopSketch out;
  out.hops.reserve(sketch.hops.size());
  for (size_t i = 0; i < sketch.hops.size(); ++i) {
    out.hops.push_back(AccumulatePrefix(sketch, i));
  }
  return out;
}

bool SketchCoversAccumulated(const KHopSketch& graph_acc,
                             const KHopSketch& pattern_acc) {
  const size_t hops = pattern_acc.hops.size();
  for (size_t i = 0; i < hops; ++i) {
    if (i >= graph_acc.hops.size()) {
      if (!pattern_acc.hops[i].empty()) return false;
      continue;
    }
    auto [covered, slack] =
        CompareDistributions(graph_acc.hops[i], pattern_acc.hops[i]);
    (void)slack;
    if (!covered) return false;
  }
  return true;
}

int64_t SketchScoreAccumulated(const KHopSketch& graph_acc,
                               const KHopSketch& pattern_acc) {
  const size_t hops = pattern_acc.hops.size();
  int64_t total = 0;
  for (size_t i = 0; i < hops && i < graph_acc.hops.size(); ++i) {
    auto [covered, slack] =
        CompareDistributions(graph_acc.hops[i], pattern_acc.hops[i]);
    if (!covered) return -1;
    total += slack;
  }
  return total;
}

}  // namespace gpar
