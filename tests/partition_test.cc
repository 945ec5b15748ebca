#include "graph/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "graph/generator.h"
#include "graph/neighborhood.h"
#include "graph/paper_graphs.h"
#include "match/matcher.h"

namespace gpar {
namespace {

/// The reference assignment: weights from one `NodesWithinRadius` BFS per
/// center, then LPT — stable sort by descending weight, each center to the
/// least-loaded fragment, the lowest index on ties.
Partitioning OraclePartition(const Graph& g, const std::vector<NodeId>& centers,
                             uint32_t n, uint32_t d) {
  std::vector<size_t> weight(centers.size());
  for (size_t i = 0; i < centers.size(); ++i) {
    weight[i] = NodesWithinRadius(g, centers[i], d).size();
  }
  std::vector<size_t> order(centers.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return weight[a] > weight[b]; });
  Partitioning out;
  out.fragments.resize(n);
  out.owner_of_center.assign(centers.size(), 0);
  std::vector<size_t> load(n, 0);
  for (size_t idx : order) {
    const uint32_t f = static_cast<uint32_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    load[f] += weight[idx];
    out.owner_of_center[idx] = f;
    out.fragments[f].centers.push_back(centers[idx]);
  }
  for (Fragment& f : out.fragments) {
    std::sort(f.centers.begin(), f.centers.end());
  }
  return out;
}

void ExpectMatchesOracle(const Graph& g, const std::vector<NodeId>& centers,
                         uint32_t n, uint32_t d) {
  PartitionOptions opt;
  opt.num_fragments = n;
  opt.d = d;
  auto parts = PartitionGraph(g, centers, opt);
  ASSERT_TRUE(parts.ok()) << parts.status();
  const Partitioning want = OraclePartition(g, centers, n, d);
  EXPECT_EQ(parts->owner_of_center, want.owner_of_center)
      << "n=" << n << " d=" << d;
  ASSERT_EQ(parts->fragments.size(), want.fragments.size());
  for (size_t f = 0; f < want.fragments.size(); ++f) {
    EXPECT_EQ(parts->fragments[f].centers, want.fragments[f].centers)
        << "n=" << n << " d=" << d << " fragment " << f;
  }
}

TEST(PartitionTest, OwnershipMatchesPerCenterBfsOracle) {
  // The parallel weight sweep splits the centers into one range per pool
  // thread; its weights, and so the ownership, must equal the per-center
  // BFS oracle's at every fragment count.
  Graph g = MakeSynthetic(800, 2400, 12, 5);
  std::vector<NodeId> centers;
  for (NodeId v = 0; v < g.num_nodes(); v += 3) centers.push_back(v);
  for (uint32_t d : {1u, 2u}) {
    for (uint32_t n : {1u, 2u, 3u, 5u, 8u, 16u}) {
      ExpectMatchesOracle(g, centers, n, d);
    }
  }
  // No centers: every range is empty.
  ExpectMatchesOracle(g, {}, 4, 2);
  // Fewer centers than threads: some ranges are empty.
  ExpectMatchesOracle(g, {7, 3}, 16, 2);
  ExpectMatchesOracle(g, {11}, 8, 1);
}

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
  // the node set `FragmentNodes` derives is the whole check.
  Graph g = MakeSynthetic(300, 900, 15, 3);
  std::vector<NodeId> centers;
  for (NodeId v = 0; v < 60; ++v) centers.push_back(v);
  PartitionOptions opt;
  opt.num_fragments = 3;
  opt.d = 2;
  auto parts = PartitionGraph(g, centers, opt);
  ASSERT_TRUE(parts.ok());

  for (const Fragment& f : parts->fragments) {
    const std::vector<NodeId> nodes = FragmentNodes(g, f, opt.d);
    for (NodeId global : f.centers) {
      for (NodeId w : NodesWithinRadius(g, global, opt.d)) {
        EXPECT_TRUE(std::binary_search(nodes.begin(), nodes.end(), w))
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
    const std::vector<NodeId> nodes = FragmentNodes(g1.graph, f, opt.d);
    for (NodeId global_id : f.centers) {
      const DNeighborhood nb = ExtractDNeighborhood(g1.graph, global_id, opt.d);
      for (NodeId w : nb.sub.to_global) {
        EXPECT_TRUE(std::binary_search(nodes.begin(), nodes.end(), w));
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
  EXPECT_LT(FragmentSkew(g, *parts, opt.d), 0.5);
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
