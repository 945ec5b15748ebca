#include "match/matcher.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/graph_builder.h"
#include "graph/paper_graphs.h"
#include "match/multi_pattern.h"

namespace gpar {
namespace {

class MatcherTest : public ::testing::Test {
 protected:
  MatcherTest() : g1_(MakePaperG1()) {}
  PaperG1 g1_;
};

TEST_F(MatcherTest, Example3_Q1ImagesOfX) {
  // Example 3: Q1(x, G1) includes cust1-cust3 and cust5.
  VF2Matcher m(g1_.graph);
  const Pattern& q1 = g1_.r1.antecedent();
  std::vector<NodeId> images = m.Images(q1, q1.x());
  std::sort(images.begin(), images.end());
  std::vector<NodeId> expected{g1_.cust1, g1_.cust2, g1_.cust3, g1_.cust5};
  EXPECT_EQ(images, expected);
}

TEST_F(MatcherTest, ExistsAtAnchors) {
  VF2Matcher m(g1_.graph);
  EXPECT_TRUE(m.ExistsAt(g1_.r1.pr(), g1_.cust1));
  EXPECT_TRUE(m.ExistsAt(g1_.r1.pr(), g1_.cust2));
  EXPECT_FALSE(m.ExistsAt(g1_.r1.pr(), g1_.cust4));
  EXPECT_FALSE(m.ExistsAt(g1_.r1.pr(), g1_.cust5));  // antecedent only
  EXPECT_TRUE(m.ExistsAt(g1_.r1.antecedent(), g1_.cust5));
}

TEST_F(MatcherTest, ScratchReuseAcrossInterleavedPatterns) {
  // Successive queries reuse the matcher's scratch and plan cache; results
  // must stay identical when patterns and anchors are interleaved, and
  // repeated probes of the same pattern must not re-plan it.
  VF2Matcher m(g1_.graph);
  const Pattern& pr = g1_.r1.pr();
  const Pattern& ant = g1_.r1.antecedent();
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_TRUE(m.ExistsAt(pr, g1_.cust1));
    EXPECT_FALSE(m.ExistsAt(pr, g1_.cust4));
    EXPECT_FALSE(m.ExistsAt(pr, g1_.cust5));
    EXPECT_TRUE(m.ExistsAt(ant, g1_.cust5));
    std::vector<NodeId> images = m.Images(ant, ant.x());
    std::sort(images.begin(), images.end());
    std::vector<NodeId> expected{g1_.cust1, g1_.cust2, g1_.cust3, g1_.cust5};
    EXPECT_EQ(images, expected);
  }
  // Two distinct patterns were planned, each exactly once.
  EXPECT_EQ(m.plans_cached(), 2u);
}

TEST_F(MatcherTest, ThrowingCallbackDoesNotCorruptScratch) {
  // An exception unwinding out of an embedding callback skips Extend's
  // symmetric used-bitmap clears; the matcher must still answer later
  // queries correctly (the stale path is swept at the next search).
  VF2Matcher m(g1_.graph);
  struct Abort {};
  const Pattern& pr = g1_.r1.pr();
  EXPECT_THROW(m.Enumerate(pr, {},
                           [](std::span<const NodeId>) -> bool {
                             throw Abort{};
                           }),
               Abort);
  EXPECT_TRUE(m.ExistsAt(pr, g1_.cust1));
  std::vector<NodeId> images = m.Images(g1_.r1.antecedent(),
                                        g1_.r1.antecedent().x());
  std::sort(images.begin(), images.end());
  std::vector<NodeId> expected{g1_.cust1, g1_.cust2, g1_.cust3, g1_.cust5};
  EXPECT_EQ(images, expected);
}

TEST_F(MatcherTest, MultiplicityForcesDistinctCopies) {
  // like(x, FR^4): nobody likes 4 French restaurants.
  VF2Matcher m(g1_.graph);
  const Interner& labels = g1_.graph.labels();
  Pattern p;
  PNodeId x = p.AddNode(labels.Lookup("cust"));
  PNodeId f = p.AddNode(labels.Lookup("French_restaurant"), 4);
  p.AddEdge(x, labels.Lookup("like"), f);
  p.set_x(x);
  EXPECT_TRUE(m.Images(p, x).empty());

  // FR^3 matches cust1-cust5.
  Pattern p3;
  PNodeId x3 = p3.AddNode(labels.Lookup("cust"));
  PNodeId f3 = p3.AddNode(labels.Lookup("French_restaurant"), 3);
  p3.AddEdge(x3, labels.Lookup("like"), f3);
  p3.set_x(x3);
  EXPECT_EQ(m.Images(p3, x3).size(), 5u);
  (void)f;
}

TEST_F(MatcherTest, EnumerateCountsEmbeddings) {
  // friend(x, x') in the two triangles: 6 ordered pairs per triangle.
  VF2Matcher m(g1_.graph);
  const Interner& labels = g1_.graph.labels();
  Pattern p;
  PNodeId x = p.AddNode(labels.Lookup("cust"));
  PNodeId z = p.AddNode(labels.Lookup("cust"));
  p.AddEdge(x, labels.Lookup("friend"), z);
  p.set_x(x);
  uint64_t n = m.Enumerate(
      p, {}, [](std::span<const NodeId>) { return true; });
  EXPECT_EQ(n, 12u);

  // Early stop via callback.
  uint64_t seen = 0;
  m.Enumerate(p, {}, [&](std::span<const NodeId>) {
    ++seen;
    return seen < 3;
  });
  EXPECT_EQ(seen, 3u);

  // Limit parameter.
  uint64_t limited = m.Enumerate(
      p, {}, [](std::span<const NodeId>) { return true; }, 5);
  EXPECT_EQ(limited, 5u);
}

TEST_F(MatcherTest, DisconnectedPatternStillMatches) {
  // Antecedent with isolated y is legal for Q-only matching.
  const Interner& labels = g1_.graph.labels();
  VF2Matcher m(g1_.graph);
  Pattern p;
  PNodeId x = p.AddNode(labels.Lookup("cust"));
  PNodeId z = p.AddNode(labels.Lookup("cust"));
  PNodeId y = p.AddNode(labels.Lookup("French_restaurant"));
  p.AddEdge(x, labels.Lookup("friend"), z);
  p.set_x(x);
  p.set_y(y);
  // Every cust with a friend matches; y binds to any FR node.
  EXPECT_EQ(m.Images(p, x).size(), 6u);
}

TEST_F(MatcherTest, MultiPatternSharing) {
  // Q5 ⊑ Q7 anchored at x: evaluating both at a center that fails Q5 must
  // skip Q7 entirely.
  std::vector<const Pattern*> pats{&g1_.r5.antecedent(),
                                   &g1_.r7.antecedent()};
  MultiPatternEvaluator eval(pats);
  VF2Matcher m(g1_.graph);

  std::vector<char> out;
  eval.EvaluateAt(m, g1_.cust6, &out);  // cust6 fails Q5 (no FR likes)
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 0);
  uint64_t q_after_fail = eval.queries_issued();
  EXPECT_EQ(q_after_fail, 1u);  // only Q5 was actually evaluated

  eval.EvaluateAt(m, g1_.cust1, &out);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 1);
}

TEST_F(MatcherTest, MultiPatternDuplicatesEvaluatedOnce) {
  std::vector<const Pattern*> pats{&g1_.r5.antecedent(),
                                   &g1_.r5.antecedent()};
  MultiPatternEvaluator eval(pats);
  VF2Matcher m(g1_.graph);
  std::vector<char> out;
  eval.EvaluateAt(m, g1_.cust1, &out);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 1);
  EXPECT_EQ(eval.queries_issued(), 1u);
}

TEST_F(MatcherTest, SharedPlanStoreServesProbes) {
  // A store-served probe answers identically to private planning and is
  // counted; Prepare is idempotent and unprepared patterns fall back.
  SearchPlanStore store(g1_.graph);
  const Pattern& pr = g1_.r1.pr();
  PNodeId x = pr.x();
  store.Prepare(pr, {&x, 1});
  store.Prepare(pr, {&x, 1});  // idempotent
  EXPECT_EQ(store.patterns_planned(), 1u);
  ASSERT_NE(store.Find(pr), nullptr);
  EXPECT_EQ(store.Find(g1_.r5.pr()), nullptr);

  VF2Matcher with_store(g1_.graph);
  with_store.set_plan_store(&store);
  VF2Matcher without(g1_.graph);
  for (NodeId v : {g1_.cust1, g1_.cust2, g1_.cust4, g1_.cust5}) {
    EXPECT_EQ(with_store.ExistsAt(pr, v), without.ExistsAt(pr, v));
  }
  EXPECT_EQ(with_store.plan_store_hits(), 4u);
  EXPECT_EQ(with_store.plans_cached(), 0u);  // never planned privately

  // A pattern the store does not know is planned privately as before.
  EXPECT_TRUE(with_store.ExistsAt(g1_.r5.pr(), g1_.cust1));
  EXPECT_EQ(with_store.plan_store_hits(), 4u);
  EXPECT_EQ(with_store.plans_cached(), 1u);
}

TEST_F(MatcherTest, BoundProbesAnswerLikeExistsAt) {
  // Bind resolves once; each ProbeAt answers like ExistsAt and counts as a
  // store-served probe when the plan came from the store.
  SearchPlanStore store(g1_.graph);
  const Pattern& pr = g1_.r1.pr();
  PNodeId x = pr.x();
  store.Prepare(pr, {&x, 1});
  VF2Matcher bound(g1_.graph);
  bound.set_plan_store(&store);
  VF2Matcher reference(g1_.graph);
  const auto custs = g1_.graph.nodes_with_label(pr.node(x).label);
  bound.Bind(pr);
  for (NodeId v : custs) {
    EXPECT_EQ(bound.ProbeAt(v), reference.ExistsAt(pr, v)) << "node " << v;
  }
  EXPECT_EQ(bound.plan_store_hits(), custs.size());
  // Rebinding to a pattern the store lacks plans it privately, once.
  const Pattern& ant = g1_.r1.antecedent();
  bound.Bind(ant);
  for (NodeId v : custs) {
    EXPECT_EQ(bound.ProbeAt(v), reference.ExistsAt(ant, v)) << "node " << v;
  }
  EXPECT_EQ(bound.plan_store_hits(), custs.size());
  EXPECT_EQ(bound.plans_cached(), 1u);
}

TEST(SearchPlanTest, SelectiveNeighbourIsPlacedFirst) {
  // x has 50 `e`-neighbours labelled b and one labelled c. Breadth-first
  // order would take b (lower id) first and retry c under each b image;
  // the fail-first plan takes c, whose expected fan-out is 1, not 50.
  GraphBuilder b;
  NodeId hub = b.AddNode("a");
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(b.AddEdge(hub, "e", b.AddNode("b")).ok());
  }
  ASSERT_TRUE(b.AddEdge(hub, "e", b.AddNode("c")).ok());
  Graph g = std::move(b).Build();
  const Interner& l = g.labels();
  EXPECT_EQ(g.edge_triple_count(l.Lookup("a"), l.Lookup("e"), l.Lookup("b")),
            50u);
  Pattern p;
  PNodeId x = p.AddNode(l.Lookup("a"));
  PNodeId pb = p.AddNode(l.Lookup("b"));
  PNodeId pc = p.AddNode(l.Lookup("c"));
  p.AddEdge(x, l.Lookup("e"), pb);
  p.AddEdge(x, l.Lookup("e"), pc);
  p.set_x(x);
  SearchPlan plan = BuildSearchPlan(p, {x}, g);
  EXPECT_EQ(plan.order, (std::vector<PNodeId>{x, pc, pb}));
  // With nothing anchored the rarest label roots the search.
  EXPECT_EQ(BuildSearchPlan(p, {}, g).order.front(), x);
  VF2Matcher m(g);
  EXPECT_TRUE(m.ExistsAt(p, hub));
}

}  // namespace
}  // namespace gpar
