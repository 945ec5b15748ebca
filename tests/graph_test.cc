#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

#include "graph/generator.h"
#include "graph/graph_builder.h"
#include "graph/graph_delta.h"
#include "graph/graph_io.h"
#include "graph/neighborhood.h"
#include "graph/stats.h"

namespace gpar {
namespace {

Graph SmallGraph() {
  GraphBuilder b;
  NodeId a = b.AddNode("person");   // 0
  NodeId c = b.AddNode("person");   // 1
  NodeId s = b.AddNode("store");    // 2
  NodeId t = b.AddNode("city");     // 3
  EXPECT_TRUE(b.AddEdge(a, "knows", c).ok());
  EXPECT_TRUE(b.AddEdge(c, "knows", a).ok());
  EXPECT_TRUE(b.AddEdge(a, "shops_at", s).ok());
  EXPECT_TRUE(b.AddEdge(c, "shops_at", s).ok());
  EXPECT_TRUE(b.AddEdge(s, "in", t).ok());
  EXPECT_TRUE(b.AddEdge(a, "lives_in", t).ok());
  return std::move(b).Build();
}

TEST(GraphBuilderTest, BasicCounts) {
  Graph g = SmallGraph();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_EQ(g.size(), 10u);  // |G| = |V| + |E|
}

TEST(GraphBuilderTest, RejectsOutOfRangeEdge) {
  GraphBuilder b;
  b.AddNode("x");
  Status s = b.AddEdge(0, "e", 7);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(GraphBuilderTest, DeduplicatesParallelEdges) {
  GraphBuilder b;
  NodeId a = b.AddNode("n");
  NodeId c = b.AddNode("n");
  ASSERT_TRUE(b.AddEdge(a, "e", c).ok());
  ASSERT_TRUE(b.AddEdge(a, "e", c).ok());
  ASSERT_TRUE(b.AddEdge(a, "f", c).ok());  // different label survives
  Graph g = std::move(b).Build();
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphTest, AdjacencyIsLabelSorted) {
  Graph g = SmallGraph();
  auto edges = g.out_edges(0);
  for (size_t i = 1; i < edges.size(); ++i) {
    EXPECT_LE(edges[i - 1].label, edges[i].label);
  }
}

TEST(GraphTest, HasEdgeAndLabeledSlices) {
  Graph g = SmallGraph();
  LabelId knows = g.labels().Lookup("knows");
  LabelId shops = g.labels().Lookup("shops_at");
  ASSERT_NE(knows, kNoLabel);
  EXPECT_TRUE(g.HasEdge(0, knows, 1));
  EXPECT_TRUE(g.HasEdge(1, knows, 0));
  EXPECT_FALSE(g.HasEdge(0, knows, 2));
  EXPECT_FALSE(g.HasEdge(0, shops, 1));

  auto slice = g.out_edges_labeled(0, shops);
  ASSERT_EQ(slice.size(), 1u);
  EXPECT_EQ(slice[0].other, 2u);

  auto empty = g.out_edges_labeled(2, knows);
  EXPECT_TRUE(empty.empty());
}

TEST(GraphTest, InEdgesMirrorOutEdges) {
  Graph g = SmallGraph();
  LabelId shops = g.labels().Lookup("shops_at");
  auto in = g.in_edges_labeled(2, shops);
  ASSERT_EQ(in.size(), 2u);
  EXPECT_EQ(in[0].other, 0u);
  EXPECT_EQ(in[1].other, 1u);
}

TEST(GraphTest, LabelIndex) {
  Graph g = SmallGraph();
  LabelId person = g.labels().Lookup("person");
  auto people = g.nodes_with_label(person);
  ASSERT_EQ(people.size(), 2u);
  EXPECT_EQ(people[0], 0u);
  EXPECT_EQ(people[1], 1u);
  EXPECT_EQ(g.label_count(person), 2u);
  EXPECT_TRUE(g.nodes_with_label(kWildcardLabel).empty());
}

TEST(GraphTest, HasOutLabel) {
  Graph g = SmallGraph();
  EXPECT_TRUE(g.HasOutLabel(0, g.labels().Lookup("lives_in")));
  EXPECT_FALSE(g.HasOutLabel(1, g.labels().Lookup("lives_in")));
}

TEST(GraphIoTest, RoundTrip) {
  Graph g = SmallGraph();
  std::ostringstream os;
  ASSERT_TRUE(WriteGraphText(g, os).ok());
  std::istringstream is(os.str());
  auto r = ReadGraphText(is);
  ASSERT_TRUE(r.ok()) << r.status();
  const Graph& h = r.value();
  EXPECT_EQ(h.num_nodes(), g.num_nodes());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(h.labels().Name(h.node_label(v)),
              g.labels().Name(g.node_label(v)));
  }
}

TEST(GraphIoTest, RejectsCorruptInput) {
  std::istringstream bad1("v 0 a\ne 0 5 edge\n");
  EXPECT_FALSE(ReadGraphText(bad1).ok());
  std::istringstream bad2("z nonsense\n");
  EXPECT_FALSE(ReadGraphText(bad2).ok());
  std::istringstream bad3("v 3 skipped_id\n");
  EXPECT_FALSE(ReadGraphText(bad3).ok());
}

TEST(GraphIoTest, RejectsDuplicateVertexId) {
  std::istringstream dup("v 0 a\nv 0 b\n");
  auto r = ReadGraphText(dup);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(GraphIoTest, RejectsEdgeToUndeclaredVertex) {
  // Both endpoints must be declared before the edge record.
  std::istringstream fwd("v 0 a\ne 0 1 edge\nv 1 b\n");
  EXPECT_FALSE(ReadGraphText(fwd).ok());
  std::istringstream src("v 0 a\nv 1 b\ne 7 1 edge\n");
  EXPECT_FALSE(ReadGraphText(src).ok());
}

TEST(GraphIoTest, RejectsMalformedRecords) {
  std::istringstream v_short("v 0\n");
  EXPECT_FALSE(ReadGraphText(v_short).ok());
  std::istringstream v_nonint("v zero a\n");
  EXPECT_FALSE(ReadGraphText(v_nonint).ok());
  std::istringstream e_short("v 0 a\nv 1 b\ne 0 1\n");
  EXPECT_FALSE(ReadGraphText(e_short).ok());
  std::istringstream e_nonint("v 0 a\nv 1 b\ne 0 one edge\n");
  auto r = ReadGraphText(e_nonint);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos);
}

TEST(GraphIoTest, CommentsAndBlankLinesIgnored) {
  std::istringstream ok("# header\n\nv 0 a\n# mid\nv 1 b\ne 0 1 edge\n\n");
  auto r = ReadGraphText(ok);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->num_nodes(), 2u);
  EXPECT_EQ(r->num_edges(), 1u);
}

TEST(GraphIoTest, EscapedLabelsRoundTrip) {
  // Spaces are escaped with '_' by convention; underscores must survive
  // both directions verbatim.
  GraphBuilder b;
  NodeId v0 = b.AddNode("French_restaurant");
  NodeId v1 = b.AddNode("fine_dining_lover");
  ASSERT_TRUE(b.AddEdge(v1, "dined_at", v0).ok());
  Graph g = std::move(b).Build();

  std::ostringstream os;
  ASSERT_TRUE(WriteGraphText(g, os).ok());
  std::istringstream is(os.str());
  auto r = ReadGraphText(is);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->labels().Name(r->node_label(v0)), "French_restaurant");
  EXPECT_EQ(r->labels().Name(r->node_label(v1)), "fine_dining_lover");
  auto edges = r->out_edges(v1);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(r->labels().Name(edges[0].label), "dined_at");

  // Second round trip is textually identical.
  std::ostringstream os2;
  ASSERT_TRUE(WriteGraphText(*r, os2).ok());
  EXPECT_EQ(os2.str(), os.str());
}

TEST(NeighborhoodTest, RadiusBfs) {
  Graph g = SmallGraph();
  // From node 3 (city): hop 1 = {s, a}, hop 2 = {c}.
  std::vector<uint32_t> dist;
  auto n1 = NodesWithinRadius(g, 3, 1, &dist);
  EXPECT_EQ(n1.size(), 3u);
  auto n2 = NodesWithinRadius(g, 3, 2, &dist);
  EXPECT_EQ(n2.size(), 4u);
  uint32_t max_d = 0;
  for (uint32_t d : dist) max_d = std::max(max_d, d);
  EXPECT_EQ(max_d, 2u);
}

TEST(NeighborhoodTest, InducedSubgraphKeepsInternalEdgesOnly) {
  Graph g = SmallGraph();
  InducedSubgraph sub = BuildInducedSubgraph(g, {0, 1, 3});
  EXPECT_EQ(sub.graph.num_nodes(), 3u);
  // knows x2 + lives_in survive; shops_at edges dropped (store excluded).
  EXPECT_EQ(sub.graph.num_edges(), 3u);
  // Label dictionary is shared.
  EXPECT_EQ(sub.graph.labels().Lookup("knows"), g.labels().Lookup("knows"));
}

TEST(NeighborhoodTest, DNeighborhoodCentersItself) {
  Graph g = SmallGraph();
  DNeighborhood dn = ExtractDNeighborhood(g, 0, 1);
  EXPECT_EQ(dn.sub.to_global[dn.center_local], 0u);
  // 1 hop of node 0: {0, 1, 2, 3}.
  EXPECT_EQ(dn.sub.graph.num_nodes(), 4u);
}

TEST(StatsTest, FrequentEdgePatterns) {
  Graph g = SmallGraph();
  auto stats = FrequentEdgePatterns(g);
  ASSERT_FALSE(stats.empty());
  // (person, knows, person) and (person, shops_at, store) both occur twice.
  EXPECT_EQ(stats[0].count, 2u);
  EXPECT_EQ(stats[1].count, 2u);
  auto limited = FrequentEdgePatterns(g, 2);
  EXPECT_EQ(limited.size(), 2u);
}

/// The O(|E|) edge scan `FrequentEdgePatterns` ran before it read the
/// graph's triple table: counts in (src, edge, dst) label order, then a
/// stable sort by descending count.
std::vector<EdgePatternStat> ScanFrequentEdgePatterns(const Graph& g,
                                                      size_t limit = 0) {
  std::map<std::tuple<LabelId, LabelId, LabelId>, uint64_t> counts;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const AdjEntry& e : g.out_edges(v)) {
      counts[{g.node_label(v), e.label, g.node_label(e.other)}]++;
    }
  }
  std::vector<EdgePatternStat> out;
  for (const auto& [key, count] : counts) {
    out.push_back({std::get<0>(key), std::get<1>(key), std::get<2>(key),
                   count});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const EdgePatternStat& a, const EdgePatternStat& b) {
                     return a.count > b.count;
                   });
  if (limit > 0 && out.size() > limit) out.resize(limit);
  return out;
}

TEST(StatsTest, FrequentEdgePatternsEqualEdgeScan) {
  // Same counts, same tie order, with and without a limit, on generated
  // graphs and on a graph after a mixed insert+delete patch.
  std::vector<Graph> graphs;
  graphs.push_back(SmallGraph());
  for (uint64_t seed : {1, 2, 3}) {
    graphs.push_back(MakeSynthetic(300, 900, 15, seed));
  }
  graphs.push_back(MakePokecLike(1, 7));
  {
    const Graph& base = graphs[1];
    GraphDelta delta;
    for (NodeId v = 0; v < base.num_nodes() && delta.deletes.size() < 40;
         v += 3) {
      for (const AdjEntry& e : base.out_edges(v)) {
        delta.deletes.push_back({v, e.label, e.other});
        break;
      }
    }
    const LabelId fresh = base.labels_ptr()->Intern("patched_edge");
    for (NodeId v = 1; v + 7 < base.num_nodes() && delta.inserts.size() < 40;
         v += 5) {
      delta.inserts.push_back({v, fresh, v + 7});
      delta.inserts.push_back({v + 7, base.out_edges(v).empty()
                                          ? fresh
                                          : base.out_edges(v)[0].label,
                               v});
    }
    auto patch = PatchGraph(base, delta);
    ASSERT_TRUE(patch.ok()) << patch.status();
    ASSERT_GT(patch->edges_deleted, 0u);
    ASSERT_GT(patch->edges_inserted, 0u);
    graphs.push_back(std::move(patch->graph));
  }
  for (const Graph& g : graphs) {
    EXPECT_EQ(FrequentEdgePatterns(g), ScanFrequentEdgePatterns(g));
    EXPECT_EQ(FrequentEdgePatterns(g, 5), ScanFrequentEdgePatterns(g, 5));
    uint64_t total = 0;
    for (const EdgePatternStat& t : g.edge_triples()) {
      EXPECT_EQ(g.edge_triple_count(t.src_label, t.edge_label, t.dst_label),
                t.count);
      total += t.count;
    }
    EXPECT_EQ(total, g.num_edges());
    EXPECT_TRUE(std::is_sorted(g.edge_triples().begin(),
                               g.edge_triples().end(), TripleLess));
  }
  EXPECT_EQ(graphs[0].edge_triple_count(0, 12345, 0), 0u);
}

TEST(StatsTest, DegreeStats) {
  Graph g = SmallGraph();
  DegreeStats s = ComputeDegreeStats(g);
  EXPECT_DOUBLE_EQ(s.avg_degree, 3.0);  // 2*6/4
  EXPECT_EQ(s.max_out_degree, 3u);      // node 0
  EXPECT_EQ(s.max_in_degree, 2u);       // store and city
}

}  // namespace
}  // namespace gpar
