#ifndef GPAR_TESTS_BFS_PLAN_ORACLE_H_
#define GPAR_TESTS_BFS_PLAN_ORACLE_H_

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "match/matcher.h"
#include "pattern/pattern.h"

namespace gpar::test {

/// The breadth-first planner search plans were built with before fail-first
/// ordering: anchored nodes first, then BFS over pattern adjacency from
/// them, and each disconnected remainder rooted at the node whose label is
/// rarest in `g`. Plan order only steers cost, so every search through a
/// store prepared with this planner must answer exactly like the
/// fail-first plans do — the oracle of the plan-order equivalence tests.
inline SearchPlan BfsSearchPlan(const Pattern& p, std::vector<PNodeId> anchored,
                                const Graph& g) {
  std::sort(anchored.begin(), anchored.end());
  anchored.erase(std::unique(anchored.begin(), anchored.end()),
                 anchored.end());
  SearchPlan plan;
  plan.anchored = std::move(anchored);

  std::vector<bool> placed(p.num_nodes(), false);
  std::deque<PNodeId> frontier;
  auto place = [&](PNodeId u) {
    if (placed[u]) return;
    placed[u] = true;
    plan.order.push_back(u);
    frontier.push_back(u);
  };
  auto drain = [&] {
    while (!frontier.empty()) {
      PNodeId u = frontier.front();
      frontier.pop_front();
      for (const PatternAdj& a : p.adj(u)) place(a.other);
    }
  };
  for (PNodeId u : plan.anchored) place(u);
  drain();
  for (;;) {
    PNodeId best = kNoPatternNode;
    size_t best_count = 0;
    for (PNodeId u = 0; u < p.num_nodes(); ++u) {
      if (placed[u]) continue;
      size_t c = g.label_count(p.node(u).label);
      if (best == kNoPatternNode || c < best_count) {
        best = u;
        best_count = c;
      }
    }
    if (best == kNoPatternNode) break;
    place(best);
    drain();
  }
  return plan;
}

/// A `PlanBuilder` running `BfsSearchPlan` over `g`.
inline PlanBuilder BfsPlanBuilder(const Graph& g) {
  return [&g](const Pattern& expanded, std::vector<PNodeId> anchored) {
    return BfsSearchPlan(expanded, std::move(anchored), g);
  };
}

}  // namespace gpar::test

#endif  // GPAR_TESTS_BFS_PLAN_ORACLE_H_
