#include "graph/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/generator.h"
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
  // its fragment. The fragment is the subgraph its node set induces, so
  // the node set is the whole check.
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
        EXPECT_TRUE(std::binary_search(f.nodes.begin(), f.nodes.end(), w))
            << "missing node " << w << " from N_d(" << global << ")";
      }
    }
  }
}

TEST(PartitionTest, LocalMatchingEqualsGlobalMatching) {
  // Data locality of subgraph isomorphism (Section 4.2): v_x ∈ P_R(x, G)
  // iff v_x ∈ P_R(x, G_d(v_x)), and G_d(v_x) lies inside the owning
  // fragment — so a worker matching its owned centers on the whole graph
  // never leaves its fragment.
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
    for (NodeId global_id : f.centers) {
      const DNeighborhood nb = ExtractDNeighborhood(g1.graph, global_id, opt.d);
      for (NodeId w : nb.sub.to_global) {
        EXPECT_TRUE(std::binary_search(f.nodes.begin(), f.nodes.end(), w));
      }
      VF2Matcher local(nb.sub.graph);
      for (const Gpar* r : {&g1.r1, &g1.r5, &g1.r6, &g1.r7, &g1.r8}) {
        EXPECT_EQ(local.ExistsAt(r->pr(), nb.center_local),
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
  EXPECT_LT(FragmentSkew(g, *parts), 0.5);
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

}  // namespace
}  // namespace gpar
