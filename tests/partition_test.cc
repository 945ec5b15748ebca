#include "graph/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/generator.h"
#include "graph/graph_builder.h"
#include "graph/neighborhood.h"
#include "graph/paper_graphs.h"
#include "match/matcher.h"

namespace gpar {
namespace {

TEST(PartitionTest, RejectsZeroFragments) {
  Graph g = MakeSynthetic(100, 300, 10, 1);
  std::vector<NodeId> centers{0, 1, 2};
  PartitionOptions opt;
  opt.num_fragments = 0;
  EXPECT_FALSE(PartitionGraph(g, centers, opt).ok());
}

TEST(PartitionTest, CentersOwnedExactlyOnce) {
  Graph g = MakeSynthetic(500, 1500, 20, 7);
  std::vector<NodeId> centers;
  for (NodeId v = 0; v < 100; ++v) centers.push_back(v);
  PartitionOptions opt;
  opt.num_fragments = 4;
  opt.d = 2;
  auto parts = PartitionGraph(g, centers, opt);
  ASSERT_TRUE(parts.ok());

  // Every center owned by exactly one fragment; owner map consistent.
  std::multiset<NodeId> owned;
  for (const Fragment& f : parts->fragments) {
    for (NodeId c : f.centers) owned.insert(c);
  }
  EXPECT_EQ(owned.size(), centers.size());
  for (NodeId c : centers) EXPECT_EQ(owned.count(c), 1u);
  EXPECT_EQ(parts->owner_of_center.size(), centers.size());
}

TEST(PartitionTest, DLocalityInvariant) {
  // The defining invariant: G_d(v_x) of every owned center is contained in
  // its fragment. A view carries membership only (parent edges between
  // members are in the induced subgraph by definition), so the node set is
  // the whole check.
  Graph g = MakeSynthetic(300, 900, 15, 3);
  std::vector<NodeId> centers;
  for (NodeId v = 0; v < 60; ++v) centers.push_back(v);
  PartitionOptions opt;
  opt.num_fragments = 3;
  opt.d = 2;
  auto parts = PartitionGraph(g, centers, opt);
  ASSERT_TRUE(parts.ok());

  for (const Fragment& f : parts->fragments) {
    for (NodeId global : f.centers) {
      for (NodeId w : NodesWithinRadius(g, global, opt.d)) {
        EXPECT_TRUE(f.view.contains(w))
            << "missing node " << w << " from N_d(" << global << ")";
      }
    }
  }
}

TEST(PartitionTest, LocalMatchingEqualsGlobalMatching) {
  // Data locality of subgraph isomorphism (Section 4.2): v_x ∈ P_R(x, G)
  // iff v_x ∈ P_R(x, G_d(v_x)) — matching inside the fragment is exact.
  PaperG1 g1 = MakePaperG1();
  std::vector<NodeId> centers{g1.cust1, g1.cust2, g1.cust3,
                              g1.cust4, g1.cust5, g1.cust6};
  PartitionOptions opt;
  opt.num_fragments = 2;
  opt.d = 2;
  auto parts = PartitionGraph(g1.graph, centers, opt);
  ASSERT_TRUE(parts.ok());

  VF2Matcher global(g1.graph);
  for (const Fragment& f : parts->fragments) {
    VF2Matcher local(f.view);
    for (NodeId global_id : f.centers) {
      for (const Gpar* r : {&g1.r1, &g1.r5, &g1.r6, &g1.r7, &g1.r8}) {
        EXPECT_EQ(local.ExistsAt(r->pr(), global_id),
                  global.ExistsAt(r->pr(), global_id))
            << "locality violated at center " << global_id;
      }
    }
  }
}

TEST(PartitionTest, FragmentsRoughlyEven) {
  Graph g = MakeSynthetic(2000, 6000, 30, 11);
  std::vector<NodeId> centers;
  for (NodeId v = 0; v < 400; ++v) centers.push_back(v);
  PartitionOptions opt;
  opt.num_fragments = 5;
  opt.d = 1;
  auto parts = PartitionGraph(g, centers, opt);
  ASSERT_TRUE(parts.ok());
  // The paper reports <= 14.4% skew on Pokec; greedy LPT should stay well
  // under 50% on uniform synthetic graphs.
  EXPECT_LT(FragmentSkew(*parts), 0.5);
}

TEST(PartitionTest, MoreFragmentsThanCenters) {
  Graph g = MakeSynthetic(50, 100, 5, 2);
  std::vector<NodeId> centers{0, 1};
  PartitionOptions opt;
  opt.num_fragments = 8;
  opt.d = 1;
  auto parts = PartitionGraph(g, centers, opt);
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts->fragments.size(), 8u);
  size_t total_centers = 0;
  for (const Fragment& f : parts->fragments) total_centers += f.centers.size();
  EXPECT_EQ(total_centers, 2u);
}

TEST(PartitionTest, SaturatedNeighborhoodCenterIsNotExtendable) {
  // Regression for the center_hops_available fix: the old implementation
  // recorded the max observed BFS depth, so a center whose entire reachable
  // component fits inside N_d still reported hops "available". The real
  // signal is whether the hop-d frontier has incident edges leaving N_d.
  GraphBuilder b;
  // Component A: path a0 - a1 - a2 (length exactly d = 2). N_2(a0) is the
  // whole component; max BFS depth is 2, but nothing lies beyond it.
  NodeId a0 = b.AddNode("cust");
  NodeId a1 = b.AddNode("person");
  NodeId a2 = b.AddNode("person");
  ASSERT_TRUE(b.AddEdge(a0, "knows", a1).ok());
  ASSERT_TRUE(b.AddEdge(a1, "knows", a2).ok());
  // Component B: path b0 - b1 - b2 - b3 - b4; N_2(b0) = {b0, b1, b2} and
  // b2 (at hop 2) has an edge to b3 outside N_2 — extendable.
  NodeId b0 = b.AddNode("cust");
  NodeId b1 = b.AddNode("person");
  NodeId b2 = b.AddNode("person");
  NodeId b3 = b.AddNode("person");
  NodeId b4 = b.AddNode("person");
  ASSERT_TRUE(b.AddEdge(b0, "knows", b1).ok());
  ASSERT_TRUE(b.AddEdge(b1, "knows", b2).ok());
  ASSERT_TRUE(b.AddEdge(b2, "knows", b3).ok());
  ASSERT_TRUE(b.AddEdge(b3, "knows", b4).ok());
  // Component C: a single edge c0 -> c1; BFS from c0 saturates at depth 1,
  // well before d.
  NodeId c0 = b.AddNode("cust");
  NodeId c1 = b.AddNode("person");
  ASSERT_TRUE(b.AddEdge(c0, "knows", c1).ok());
  Graph g = std::move(b).Build();

  std::vector<NodeId> centers{a0, b0, c0};
  PartitionOptions opt;
  opt.num_fragments = 1;
  opt.d = 2;
  auto parts = PartitionGraph(g, centers, opt);
  ASSERT_TRUE(parts.ok());
  const Fragment& f = parts->fragments[0];
  ASSERT_EQ(f.centers.size(), 3u);
  for (size_t i = 0; i < f.centers.size(); ++i) {
    const uint32_t avail = f.center_hops_available[i];
    if (f.centers[i] == b0) {
      EXPECT_GT(avail, 0u) << "b0 can grow past hop d";
    } else {
      EXPECT_EQ(avail, 0u)
          << "saturated center " << f.centers[i] << " reported hops";
    }
  }
}

}  // namespace
}  // namespace gpar
