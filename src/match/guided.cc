#include "match/guided.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "pattern/pattern_ops.h"

namespace gpar {

KHopSketch ComputePatternSketch(const Pattern& p, PNodeId u, uint32_t k) {
  KHopSketch sk;
  sk.hops.resize(k);
  std::unordered_map<PNodeId, uint32_t> dist;
  std::deque<PNodeId> frontier{u};
  dist.emplace(u, 0);
  while (!frontier.empty()) {
    PNodeId w = frontier.front();
    frontier.pop_front();
    uint32_t dw = dist[w];
    if (dw == k) continue;
    for (const PatternAdj& a : p.adj(w)) {
      if (dist.emplace(a.other, dw + 1).second) frontier.push_back(a.other);
    }
  }
  std::vector<std::unordered_map<LabelId, uint32_t>> per_hop(k);
  for (const auto& [node, d] : dist) {
    if (d == 0) continue;
    per_hop[d - 1][p.node(node).label] += p.node(node).multiplicity;
  }
  for (uint32_t i = 0; i < k; ++i) {
    sk.hops[i].assign(per_hop[i].begin(), per_hop[i].end());
    std::sort(sk.hops[i].begin(), sk.hops[i].end());
  }
  return sk;
}

const KHopSketch& GuidedMatcher::SketchOf(NodeId v) {
  auto it = cache_.find(v);
  if (it == cache_.end()) {
    // Stored pre-accumulated: comparisons on the hot loop are then pure
    // linear merges. Fragment views sketch the induced subgraph.
    KHopSketch raw = view() != nullptr ? ComputeSketch(*view(), v, k_)
                                       : ComputeSketch(graph(), v, k_);
    it = cache_.emplace(v, AccumulateSketch(raw)).first;
  }
  return it->second;
}

void GuidedMatcher::PrepareForPattern(const Pattern& p) {
  uint64_t h = StructuralHash(p);
  auto& bucket = pattern_cache_[h];
  for (const PatternSketches& entry : bucket) {
    if (entry.pattern == p) {
      pattern_sketches_ = &entry.sketches;
      return;
    }
  }
  PatternSketches entry;
  entry.pattern = p;
  entry.sketches.reserve(p.num_nodes());
  for (PNodeId u = 0; u < p.num_nodes(); ++u) {
    entry.sketches.push_back(AccumulateSketch(ComputePatternSketch(p, u, k_)));
  }
  bucket.push_back(std::move(entry));
  pattern_sketches_ = &bucket.back().sketches;
}

bool GuidedMatcher::FilterCandidate(const Pattern& p, PNodeId u, NodeId v) {
  (void)p;
  if (!sketch_engaged_) return true;
  return SketchCoversAccumulated(SketchOf(v), (*pattern_sketches_)[u]);
}

void GuidedMatcher::OrderCandidates(const Pattern& p, PNodeId u,
                                    std::vector<NodeId>* cands) {
  (void)p;
  sketch_engaged_ = cands->size() > kSketchGate;
  if (!sketch_engaged_) return;
  const KHopSketch& need = (*pattern_sketches_)[u];
  std::vector<std::pair<int64_t, NodeId>> scored;
  scored.reserve(cands->size());
  for (NodeId v : *cands) {
    scored.emplace_back(SketchScoreAccumulated(SketchOf(v), need), v);
  }
  // Best (largest slack) first; score < 0 means coverage already failed and
  // FilterCandidate will drop it, but keep deterministic order regardless.
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t i = 0; i < scored.size(); ++i) (*cands)[i] = scored[i].second;
}

}  // namespace gpar
