#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <tuple>

#include "common/binary_io.h"
#include "graph/generator.h"
#include "rule/match_delta.h"
#include "graph/graph_builder.h"
#include "graph/graph_delta.h"
#include "graph/neighborhood.h"
#include "graph/graph_io.h"
#include "graph/graph_snapshot.h"
#include "graph/paper_graphs.h"
#include "rule/rule_snapshot.h"

namespace gpar {
namespace {

std::string GraphBytes(const Graph& g) {
  std::ostringstream os(std::ios::binary);
  EXPECT_TRUE(WriteGraphSnapshot(g, os).ok());
  return os.str();
}

std::string RuleBytes(const std::vector<RuleRecord>& rules,
                      const Interner& labels) {
  std::ostringstream os(std::ios::binary);
  EXPECT_TRUE(WriteRuleSetSnapshot(rules, labels, os).ok());
  return os.str();
}

/// The acceptance property: write -> read -> write is byte-identical, and
/// the reloaded graph answers like the original.
void CheckGraphRoundTrip(const Graph& g) {
  std::string bytes = GraphBytes(g);
  std::istringstream is(bytes);
  auto reloaded = ReadGraphSnapshot(is);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(GraphBytes(*reloaded), bytes);

  ASSERT_EQ(reloaded->num_nodes(), g.num_nodes());
  ASSERT_EQ(reloaded->num_edges(), g.num_edges());
  EXPECT_EQ(reloaded->labels().size(), g.labels().size());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(reloaded->node_label(v), g.node_label(v));
    auto a = g.out_edges(v), b = reloaded->out_edges(v);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
    auto ai = g.in_edges(v), bi = reloaded->in_edges(v);
    ASSERT_EQ(ai.size(), bi.size());
    for (size_t i = 0; i < ai.size(); ++i) EXPECT_EQ(ai[i], bi[i]);
  }
  // Also equivalent to the text format's view of the graph.
  std::ostringstream ta, tb;
  ASSERT_TRUE(WriteGraphText(g, ta).ok());
  ASSERT_TRUE(WriteGraphText(*reloaded, tb).ok());
  EXPECT_EQ(ta.str(), tb.str());
}

TEST(GraphSnapshotTest, RoundTripSmall) {
  GraphBuilder b;
  NodeId alice = b.AddNode("cust");
  NodeId bob = b.AddNode("cust");
  NodeId shop = b.AddNode("French_restaurant");
  ASSERT_TRUE(b.AddEdge(alice, "visit", shop).ok());
  ASSERT_TRUE(b.AddEdge(bob, "visit", shop).ok());
  ASSERT_TRUE(b.AddEdge(alice, "follow", bob).ok());
  CheckGraphRoundTrip(std::move(b).Build());
}

TEST(GraphSnapshotTest, RoundTripEmptyAndIsolated) {
  CheckGraphRoundTrip(GraphBuilder().Build());

  GraphBuilder b;
  b.AddNode("lonely");
  b.AddNode("also_lonely");
  CheckGraphRoundTrip(std::move(b).Build());
}

TEST(GraphSnapshotTest, RoundTripInternerWithUnusedLabels) {
  // Labels interned but never used by a node/edge (e.g. during mining)
  // must survive, or label ids in rule evaluations would shift.
  GraphBuilder b;
  NodeId v = b.AddNode("user");
  b.AddNode("user");
  ASSERT_TRUE(b.AddEdge(v, "follows", v + 1).ok());
  Graph g = std::move(b).Build();
  g.mutable_labels()->Intern("never_used_anywhere");
  CheckGraphRoundTrip(g);
}

TEST(GraphSnapshotTest, RoundTripGenerated) {
  CheckGraphRoundTrip(MakePokecLike(1, 7));
  CheckGraphRoundTrip(MakeSynthetic(500, 1500, 20, 11));
}

TEST(GraphSnapshotTest, RejectsCorruption) {
  Graph g = MakeSynthetic(50, 120, 8, 3);
  std::string bytes = GraphBytes(g);

  {  // bad magic
    std::string bad = bytes;
    bad[0] ^= 0x5a;
    std::istringstream is(bad);
    auto r = ReadGraphSnapshot(is);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  }
  {  // bad version
    std::string bad = bytes;
    bad[8] = 99;
    std::istringstream is(bad);
    EXPECT_FALSE(ReadGraphSnapshot(is).ok());
  }
  {  // truncated payload
    std::string bad = bytes.substr(0, bytes.size() - 7);
    std::istringstream is(bad);
    EXPECT_FALSE(ReadGraphSnapshot(is).ok());
  }
  {  // flipped payload byte -> checksum mismatch
    std::string bad = bytes;
    bad[bytes.size() / 2] ^= 0x01;
    std::istringstream is(bad);
    auto r = ReadGraphSnapshot(is);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  }
  {  // empty stream
    std::istringstream is("");
    EXPECT_FALSE(ReadGraphSnapshot(is).ok());
  }
  {  // huge declared payload size: clean Corruption, no giant allocation
    std::string bad = bytes.substr(0, 12);
    for (int i = 0; i < 8; ++i) bad.push_back(static_cast<char>(0x3f));
    bad.append(bytes.substr(20));
    std::istringstream is(bad);
    auto r = ReadGraphSnapshot(is);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  }
  {  // huge declared node count inside a checksummed payload
    GraphBuilder b;
    b.AddNode("a");
    std::string small = GraphBytes(std::move(b).Build());
    // Payload layout here: u32 label_count=1, (u32 len=1, 'a'),
    // u32 num_nodes at offset 28 + 9.
    std::string bad = small;
    for (int i = 0; i < 4; ++i) bad[28 + 9 + i] = static_cast<char>(0xff);
    // Re-stamp the checksum so only the count check can reject.
    std::string payload = bad.substr(28);
    uint64_t sum = Fnv1a64(payload);
    std::string sum_bytes;
    PutU64(&sum_bytes, sum);
    for (int i = 0; i < 8; ++i) bad[20 + i] = sum_bytes[i];
    std::istringstream is(bad);
    auto r = ReadGraphSnapshot(is);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  }
}

TEST(RuleSnapshotTest, RoundTripWithMetadata) {
  PaperG1 g1 = MakePaperG1();
  std::vector<RuleRecord> records{
      {g1.r1, 42, 0.75},
      {g1.r5, 7, 1.25},
      {g1.r6, 0, 0.0},
  };
  const Interner& labels = g1.graph.labels();
  std::string bytes = RuleBytes(records, labels);

  std::istringstream is(bytes);
  auto snap = ReadRuleSetSnapshotAny(is, g1.graph.mutable_labels());
  ASSERT_TRUE(snap.ok()) << snap.status();
  const std::vector<RuleRecord>& reloaded = snap->rules;
  ASSERT_EQ(reloaded.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(reloaded[i].rule, records[i].rule) << "rule " << i;
    EXPECT_EQ(reloaded[i].supp, records[i].supp);
    EXPECT_EQ(reloaded[i].conf, records[i].conf);
  }
  // Byte-identical re-serialization.
  EXPECT_EQ(RuleBytes(reloaded, labels), bytes);
}

TEST(RuleSnapshotTest, LoadsIntoFreshInterner) {
  // Rule snapshots are self-describing (label names): loading against an
  // empty dictionary works and the patterns keep their structure.
  PaperG1 g1 = MakePaperG1();
  std::vector<RuleRecord> records{{g1.r1, 1, 0.5}};
  std::string bytes = RuleBytes(records, g1.graph.labels());

  Interner fresh;
  std::istringstream is(bytes);
  auto snap = ReadRuleSetSnapshotAny(is, &fresh);
  ASSERT_TRUE(snap.ok()) << snap.status();
  ASSERT_EQ(snap->rules.size(), 1u);
  const Gpar& r = snap->rules[0].rule;
  EXPECT_EQ(r.antecedent().num_nodes(), g1.r1.antecedent().num_nodes());
  EXPECT_EQ(r.antecedent().num_edges(), g1.r1.antecedent().num_edges());
  EXPECT_EQ(fresh.Name(r.q_label()),
            g1.graph.labels().Name(g1.r1.q_label()));
}

TEST(RuleSnapshotTest, RejectsCorruption) {
  PaperG1 g1 = MakePaperG1();
  std::vector<RuleRecord> records{{g1.r1, 1, 0.5}};
  std::string bytes = RuleBytes(records, g1.graph.labels());
  Interner fresh;
  {
    std::string bad = bytes;
    bad[0] ^= 0xff;
    std::istringstream is(bad);
    EXPECT_FALSE(ReadRuleSetSnapshotAny(is, &fresh).ok());
  }
  {
    std::string bad = bytes;
    bad.back() ^= 0x10;  // payload flip -> checksum
    std::istringstream is(bad);
    EXPECT_FALSE(ReadRuleSetSnapshotAny(is, &fresh).ok());
  }
  {
    std::string bad = bytes.substr(0, bytes.size() / 2);
    std::istringstream is(bad);
    EXPECT_FALSE(ReadRuleSetSnapshotAny(is, &fresh).ok());
  }
}

TEST(GraphDeltaTest, PatchedEqualsRebuilt) {
  Graph g = MakeSynthetic(200, 500, 12, 5);
  std::vector<EdgeInsert> inserts;
  LabelId like = g.mutable_labels()->Intern("delta_like");
  // A mix: brand-new label, existing labels, duplicates, repeats.
  inserts.push_back({3, like, 9});
  inserts.push_back({3, like, 9});  // repeated in the batch
  inserts.push_back({17, g.node_label(0), 4});
  {
    auto existing = g.out_edges(1);
    if (!existing.empty()) {
      inserts.push_back({1, existing[0].label, existing[0].other});  // dup
    }
  }
  inserts.push_back({199, like, 0});

  GraphDelta delta;
  delta.inserts = inserts;
  auto patch = PatchGraph(g, delta);
  ASSERT_TRUE(patch.ok()) << patch.status();

  // Reference: rebuild from scratch with the original edges + inserts.
  GraphBuilder b(g.labels_ptr());
  for (NodeId v = 0; v < g.num_nodes(); ++v) b.AddNode(g.node_label(v));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const AdjEntry& e : g.out_edges(v)) {
      ASSERT_TRUE(b.AddEdge(v, e.label, e.other).ok());
    }
  }
  for (const EdgeInsert& e : inserts) {
    ASSERT_TRUE(b.AddEdge(e.src, e.label, e.dst).ok());
  }
  Graph rebuilt = std::move(b).Build();

  // Bit-identical CSR: snapshot bytes are a complete fingerprint.
  EXPECT_EQ(GraphBytes(patch->graph), GraphBytes(rebuilt));
  EXPECT_GE(patch->edges_inserted, 3u);
  EXPECT_GE(patch->duplicates, 1u);
  EXPECT_EQ(patch->applied.size(), patch->edges_inserted);
}

/// From-scratch reference for the patch bit-identity checks: rebuild on
/// the same interner from the final edge list (old edges \ deletes) ∪
/// inserts, through the ordinary builder path.
Graph RebuildWith(const Graph& g, const std::vector<EdgeDelete>& deletes,
                  const std::vector<EdgeInsert>& inserts) {
  GraphBuilder b(g.labels_ptr());
  for (NodeId v = 0; v < g.num_nodes(); ++v) b.AddNode(g.node_label(v));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const AdjEntry& e : g.out_edges(v)) {
      if (std::find(deletes.begin(), deletes.end(),
                    EdgeDelete{v, e.label, e.other}) != deletes.end()) {
        continue;
      }
      EXPECT_TRUE(b.AddEdge(v, e.label, e.other).ok());
    }
  }
  for (const EdgeInsert& e : inserts) {
    EXPECT_TRUE(b.AddEdge(e.src, e.label, e.dst).ok());
  }
  return std::move(b).Build();
}

TEST(GraphDeltaTest, PureDeletePatchEqualsRebuilt) {
  Graph g = MakeSynthetic(200, 500, 12, 5);
  ASSERT_GT(g.out_edges(1).size(), 0u);
  ASSERT_GT(g.out_edges(2).size(), 0u);
  const AdjEntry e1 = g.out_edges(1)[0];
  const AdjEntry e2 = g.out_edges(2).back();
  std::vector<EdgeDelete> deletes{
      {1, e1.label, e1.other},
      {1, e1.label, e1.other},  // duplicate delete: counted, not fatal
      {2, e2.label, e2.other},
      {3, e1.label, 199},   // (almost surely) absent edge
      {999, e1.label, 0},   // endpoint out of range
      {0, static_cast<LabelId>(g.labels().size() + 3), 1},  // bogus label
  };
  const bool absent_really_absent = !g.HasEdge(3, e1.label, 199);

  GraphDelta delta;
  delta.deletes = deletes;
  auto patch = PatchGraph(g, delta);
  ASSERT_TRUE(patch.ok()) << patch.status();
  EXPECT_EQ(GraphBytes(patch->graph),
            GraphBytes(RebuildWith(g, deletes, {})));
  EXPECT_EQ(patch->edges_deleted, absent_really_absent ? 2u : 3u);
  EXPECT_EQ(patch->missing, deletes.size() - patch->edges_deleted);
  EXPECT_EQ(patch->applied_deletes.size(), patch->edges_deleted);
  EXPECT_EQ(patch->edges_inserted, 0u);
  EXPECT_EQ(patch->graph.num_edges(), g.num_edges() - patch->edges_deleted);
}

TEST(GraphDeltaTest, MixedPatchEqualsRebuilt) {
  Graph g = MakeSynthetic(200, 500, 12, 7);
  LabelId like = g.mutable_labels()->Intern("churn_like");
  // Two distinct nodes that actually have out-edges (the synthetic
  // generator leaves some nodes bare).
  NodeId a = 0;
  while (g.out_edges(a).empty()) ++a;
  NodeId b = a + 1;
  while (g.out_edges(b).empty()) ++b;
  const AdjEntry gone = g.out_edges(a)[0];
  const AdjEntry back = g.out_edges(b)[0];

  GraphDelta delta;
  delta.deletes = {
      {a, gone.label, gone.other},
      {b, back.label, back.other},  // delete-then-reinsert within the batch
      {6, like, 7},                 // `like` is new: nothing to delete
  };
  delta.inserts = {
      {b, back.label, back.other},  // the reinsert
      {9, like, 12},
      {9, like, 12},  // repeated in the batch
  };

  auto patch = PatchGraph(g, delta);
  ASSERT_TRUE(patch.ok()) << patch.status();
  EXPECT_EQ(GraphBytes(patch->graph),
            GraphBytes(RebuildWith(g, delta.deletes, delta.inserts)));
  // The reinserted edge is present again and counted on both sides.
  EXPECT_TRUE(patch->graph.HasEdge(b, back.label, back.other));
  EXPECT_FALSE(patch->graph.HasEdge(a, gone.label, gone.other));
  EXPECT_EQ(patch->edges_deleted, 2u);
  EXPECT_EQ(patch->missing, 1u);
  EXPECT_EQ(patch->edges_inserted, 2u);
  EXPECT_EQ(patch->duplicates, 1u);
}

std::set<std::tuple<LabelId, LabelId, LabelId>> TripleSet(const Graph& g) {
  std::set<std::tuple<LabelId, LabelId, LabelId>> out;
  for (const EdgePatternStat& t : g.edge_triples()) {
    out.emplace(t.src_label, t.edge_label, t.dst_label);
  }
  return out;
}

/// Seeded random batches, each patched onto the previous batch's result:
/// the in-place patch of the out- and in-CSR, the label index and the edge
/// triple table equals a from-scratch rebuild, through triples that first
/// appear (an edge under a label the dictionary just learned) and triples
/// whose every edge is deleted.
TEST(GraphDeltaTest, RandomBatchesPatchEqualsRebuilt) {
  size_t appeared = 0, vanished = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Graph g = MakeSynthetic(120, 300, 6, seed);
    std::mt19937_64 rng(seed);
    auto random_node = [&] {
      return static_cast<NodeId>(rng() % g.num_nodes());
    };
    for (int b = 0; b < 12; ++b) {
      GraphDelta d;
      for (int i = 0; i < 8; ++i) {
        const NodeId v = random_node();
        const auto edges = g.out_edges(v);
        if (edges.empty()) continue;
        const AdjEntry& e = edges[rng() % edges.size()];
        d.deletes.push_back({v, e.label, e.other});
        if (i == 0) d.inserts.push_back({v, e.label, e.other});  // re-add
      }
      d.deletes.push_back({random_node(), 0, random_node()});  // likely missing
      if (b % 3 == 1) {
        // Every edge of the rarest triple goes.
        const auto triples = g.edge_triples();
        const EdgePatternStat rare = *std::min_element(
            triples.begin(), triples.end(),
            [](const auto& x, const auto& y) { return x.count < y.count; });
        for (NodeId v : g.nodes_with_label(rare.src_label)) {
          for (const AdjEntry& e : g.out_edges_labeled(v, rare.edge_label)) {
            if (g.node_label(e.other) == rare.dst_label) {
              d.deletes.push_back({v, e.label, e.other});
            }
          }
        }
      }
      std::vector<LabelId> labels;
      for (const EdgePatternStat& t : g.edge_triples()) {
        labels.push_back(t.edge_label);
      }
      if (b % 4 == 2) {
        labels.push_back(g.mutable_labels()->Intern(
            "fresh_" + std::to_string(seed) + "_" + std::to_string(b)));
      }
      for (int i = 0; i < 8; ++i) {
        d.inserts.push_back(
            {random_node(), labels[rng() % labels.size()], random_node()});
      }
      if (b % 4 == 2) d.inserts.push_back({random_node(), labels.back(), 0});
      d.inserts.push_back(d.inserts.back());  // repeated in the batch

      auto patch = PatchGraph(g, d);
      ASSERT_TRUE(patch.ok()) << patch.status();
      const Graph rebuilt = RebuildWith(g, d.deletes, d.inserts);
      const std::string what =
          "seed " + std::to_string(seed) + " batch " + std::to_string(b);
      EXPECT_EQ(GraphBytes(patch->graph), GraphBytes(rebuilt)) << what;
      const auto pt = patch->graph.edge_triples();
      const auto rt = rebuilt.edge_triples();
      EXPECT_TRUE(std::equal(pt.begin(), pt.end(), rt.begin(), rt.end()))
          << what;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        const auto pi = patch->graph.in_edges(v);
        const auto ri = rebuilt.in_edges(v);
        ASSERT_TRUE(std::equal(pi.begin(), pi.end(), ri.begin(), ri.end()))
            << what << " node " << v;
      }
      for (LabelId l = 0; l < g.labels().size(); ++l) {
        const auto pn = patch->graph.nodes_with_label(l);
        const auto rn = rebuilt.nodes_with_label(l);
        EXPECT_TRUE(std::equal(pn.begin(), pn.end(), rn.begin(), rn.end()))
            << what << " label " << l;
      }
      const auto before = TripleSet(g), after = TripleSet(patch->graph);
      for (const auto& t : after) appeared += before.count(t) == 0;
      for (const auto& t : before) vanished += after.count(t) == 0;
      g = std::move(patch->graph);
    }
  }
  EXPECT_GT(appeared, 0u);
  EXPECT_GT(vanished, 0u);
}

TEST(GraphDeltaTest, ValidatesInserts) {
  Graph g = MakeSynthetic(10, 20, 3, 1);
  LabelId l = g.node_label(0);
  auto patch_inserts = [&g](std::vector<EdgeInsert> inserts) {
    GraphDelta d;
    d.inserts = std::move(inserts);
    return PatchGraph(g, d);
  };
  {
    auto r = patch_inserts({{99, l, 0}});
    EXPECT_FALSE(r.ok());
  }
  {
    LabelId bogus = static_cast<LabelId>(g.labels().size() + 5);
    auto r = patch_inserts({{0, bogus, 1}});
    EXPECT_FALSE(r.ok());
  }
  {  // all-duplicate batch: graph unchanged
    auto e = g.out_edges(0);
    if (!e.empty()) {
      auto r = patch_inserts({{0, e[0].label, e[0].other}});
      ASSERT_TRUE(r.ok());
      EXPECT_FALSE(r->changed());
      EXPECT_EQ(r->edges_inserted, 0u);
      EXPECT_EQ(r->duplicates, 1u);
      EXPECT_EQ(GraphBytes(r->graph), GraphBytes(g));
    }
  }
}

TEST(GraphDeltaTest, WireRoundTrip) {
  GraphDelta delta;
  delta.sequence = 42;
  delta.inserts = {{3, 1, 9}, {17, 0, 4}, {199, 2, 0}};
  std::string bytes = delta.Serialize();

  auto back = GraphDelta::Deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, delta);

  // An empty batch is a legal wire unit too (a heartbeat).
  GraphDelta empty;
  auto back2 = GraphDelta::Deserialize(empty.Serialize());
  ASSERT_TRUE(back2.ok());
  EXPECT_EQ(*back2, empty);
}

TEST(GraphDeltaTest, WireRoundTripV2) {
  GraphDelta delta;
  delta.sequence = 99;
  delta.inserts = {{3, 1, 9}, {17, 0, 4}};
  delta.deletes = {{8, 2, 5}, {1, 1, 1}, {0, 0, 0}};
  const std::string bytes = delta.Serialize();
  // Version field (after the 8-byte magic) says 2 once deletes ride along.
  EXPECT_EQ(static_cast<unsigned char>(bytes[8]), 2u);

  auto back = GraphDelta::Deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, delta);

  // Delete-only batches are legal wire units too.
  GraphDelta wipe;
  wipe.deletes = {{4, 4, 4}};
  auto back2 = GraphDelta::Deserialize(wipe.Serialize());
  ASSERT_TRUE(back2.ok());
  EXPECT_EQ(*back2, wipe);
}

TEST(GraphDeltaTest, WireRoundTripV3LabelDefs) {
  GraphDelta delta;
  delta.sequence = 7;
  delta.inserts = {{3, 1, 9}, {17, 5, 4}};
  delta.label_defs = {{1, "knows"}, {5, "follows"}};
  const std::string bytes = delta.Serialize();
  // Any label defs promote the frame to v3, even without deletes.
  EXPECT_EQ(static_cast<unsigned char>(bytes[8]), 3u);

  auto back = GraphDelta::Deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, delta);

  // Defs + deletes ride in one v3 frame.
  delta.deletes = {{8, 1, 5}};
  auto back2 = GraphDelta::Deserialize(delta.Serialize());
  ASSERT_TRUE(back2.ok());
  EXPECT_EQ(*back2, delta);
}

/// `n` nodes over the dictionary `labels` (labelled with its first id).
Graph NodesOver(std::shared_ptr<Interner> labels, NodeId n) {
  GraphBuilder b(std::move(labels));
  if (n > 0) b.AddNodes(0, n);
  return std::move(b).Build();
}

TEST(GraphDeltaTest, LabelDefsCollectAndReintern) {
  Interner live;
  const LabelId a = live.Intern("a");
  const LabelId b = live.Intern("b");
  const LabelId minted = live.Intern("minted_live");

  GraphDelta delta;
  delta.inserts = {{0, minted, 1}, {2, a, 3}, {4, minted, 5}};
  delta.deletes = {{6, b, 7}};
  CollectLabelDefs(live, &delta);
  ASSERT_EQ(delta.label_defs.size(), 3u);  // distinct ids, sorted
  EXPECT_EQ(delta.label_defs[0], (LabelDef{a, "a"}));
  EXPECT_EQ(delta.label_defs[1], (LabelDef{b, "b"}));
  EXPECT_EQ(delta.label_defs[2], (LabelDef{minted, "minted_live"}));

  // A graph from an older snapshot (no "minted_live") learns it when the
  // frame is patched in.
  auto older = std::make_shared<Interner>();
  older->Intern("a");
  older->Intern("b");
  const Graph old_graph = NodesOver(older, 8);
  auto patched = PatchGraph(old_graph, delta);
  ASSERT_TRUE(patched.ok()) << patched.status();
  EXPECT_EQ(patched->edges_inserted, 3u);
  EXPECT_EQ(older->Lookup("minted_live"), minted);
  // Idempotent: everything now verifies as a no-op.
  ASSERT_TRUE(PatchGraph(old_graph, delta).ok());
  EXPECT_EQ(older->size(), live.size());

  // A name clash on an existing id is data corruption, not interning.
  auto clash = std::make_shared<Interner>();
  clash->Intern("a");
  clash->Intern("NOT_b");
  EXPECT_FALSE(PatchGraph(NodesOver(clash, 8), delta).ok());

  // In-order defs may extend the dictionary by more than one id (a frame
  // that minted several labels) — but a def that SKIPS ids cannot come
  // from in-order replay.
  auto fresh = std::make_shared<Interner>();
  GraphDelta defs_only;
  defs_only.label_defs = delta.label_defs;
  ASSERT_TRUE(PatchGraph(NodesOver(fresh, 0), defs_only).ok());
  EXPECT_EQ(fresh->size(), 3u);
  GraphDelta skipper;
  skipper.label_defs = {{2, "minted_live"}};
  auto gap = std::make_shared<Interner>();
  gap->Intern("a");
  EXPECT_FALSE(PatchGraph(NodesOver(gap, 1), skipper).ok());

  // A name already interned under a different id is corruption too.
  GraphDelta dup;
  dup.label_defs = {{2, "a"}};
  auto two = std::make_shared<Interner>();
  two->Intern("a");
  two->Intern("b");
  EXPECT_FALSE(PatchGraph(NodesOver(two, 1), dup).ok());
}

TEST(GraphDeltaTest, PatchGraphChecksTheWholeBatchBeforeInterning) {
  GraphBuilder b;
  const NodeId u = b.AddNode("cust");
  const NodeId v = b.AddNode("cust");
  ASSERT_TRUE(b.AddEdge(u, "follow", v).ok());
  const Graph g = std::move(b).Build();
  const Interner& dict = g.labels();
  const size_t before = dict.size();

  // An insert may use a label the batch itself defines, not one past it.
  GraphDelta good;
  good.inserts = {{u, ResolveLabel(dict, "minted", &good), v}};
  GraphDelta past_defs = good;
  past_defs.inserts.push_back({v, static_cast<LabelId>(before + 1), u});
  EXPECT_EQ(PatchGraph(g, past_defs).status().code(),
            StatusCode::kInvalidArgument);
  GraphDelta bad_endpoint = good;
  bad_endpoint.inserts.push_back({u, good.inserts[0].label, 99});
  EXPECT_EQ(PatchGraph(g, bad_endpoint).status().code(),
            StatusCode::kInvalidArgument);

  // A bad def after a good one fails the whole batch, interning neither.
  GraphDelta bad_def = good;
  bad_def.label_defs.push_back({static_cast<LabelId>(before + 2), "skips"});
  EXPECT_EQ(PatchGraph(g, bad_def).status().code(), StatusCode::kCorruption);
  // The same id under another name, or the same name under a second id,
  // is corruption.
  GraphDelta renamed = good;
  renamed.label_defs.push_back({good.label_defs[0].id, "other"});
  EXPECT_EQ(PatchGraph(g, renamed).status().code(), StatusCode::kCorruption);
  GraphDelta twice = good;
  twice.label_defs.push_back({static_cast<LabelId>(before + 1), "minted"});
  EXPECT_EQ(PatchGraph(g, twice).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(dict.size(), before);
  EXPECT_EQ(dict.Lookup("minted"), kNoLabel);

  // A def the batch repeats verifies against its first occurrence.
  GraphDelta repeated = good;
  repeated.label_defs.push_back(good.label_defs[0]);
  auto patched = PatchGraph(g, repeated);
  ASSERT_TRUE(patched.ok()) << patched.status();
  EXPECT_EQ(patched->edges_inserted, 1u);
  EXPECT_EQ(dict.size(), before + 1);
  EXPECT_EQ(dict.Lookup("minted"), good.inserts[0].label);
  // Once interned, the batch's def verifies as a no-op.
  ASSERT_TRUE(PatchGraph(g, good).ok());
  EXPECT_EQ(dict.size(), before + 1);
}

// A batch may mint a label no applied edge references (a delete naming a
// label nobody has seen). The journal frame built from its patch still
// defines it, so the next batch's minted id follows it on replay instead
// of skipping past it.
TEST(GraphDeltaTest, JournalFrameCarriesEveryDefTheBatchInterned) {
  GraphBuilder b;
  const NodeId u = b.AddNode("cust");
  const NodeId v = b.AddNode("cust");
  ASSERT_TRUE(b.AddEdge(u, "follow", v).ok());
  const Graph g = std::move(b).Build();
  const auto base = std::make_shared<Interner>(g.labels());
  const auto before = static_cast<LabelId>(g.labels().size());

  // The journal frame a session writes for a patched batch.
  auto frame_of = [](const Graph& at, const GraphPatch& p, uint64_t seq) {
    GraphDelta f;
    f.sequence = seq;
    f.inserts = p.applied;
    f.deletes = p.applied_deletes;
    CollectLabelDefs(at.labels(), &f, p.interned);
    return f;
  };
  GraphDelta one;
  one.deletes = {{u, ResolveLabel(g.labels(), "brand_x", &one), v}};
  auto p1 = PatchGraph(g, one);
  ASSERT_TRUE(p1.ok()) << p1.status();
  EXPECT_FALSE(p1->changed());
  EXPECT_EQ(p1->interned, (std::vector<LabelDef>{{before, "brand_x"}}));
  const GraphDelta f1 = frame_of(p1->graph, *p1, 1);
  EXPECT_EQ(f1.label_defs, (std::vector<LabelDef>{{before, "brand_x"}}));

  GraphDelta two;
  two.inserts = {{u, ResolveLabel(p1->graph.labels(), "brand_y", &two), v}};
  auto p2 = PatchGraph(p1->graph, two);
  ASSERT_TRUE(p2.ok()) << p2.status();
  EXPECT_EQ(p2->interned, (std::vector<LabelDef>{{before + 1, "brand_y"}}));
  const GraphDelta f2 = frame_of(p2->graph, *p2, 2);

  // Without the first frame, the second skips an id.
  const Graph skipped = NodesOver(std::make_shared<Interner>(*base), 2);
  EXPECT_EQ(PatchGraph(skipped, f2).status().code(), StatusCode::kCorruption);
  // In order, the frames re-derive the live dictionary and graph.
  const Graph replay = NodesOver(base, 2);
  ASSERT_TRUE(PatchGraph(replay, f1).ok());
  auto r2 = PatchGraph(replay, f2);
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(base->Lookup("brand_x"), before);
  EXPECT_EQ(base->Lookup("brand_y"), before + 1);
  EXPECT_TRUE(r2->graph.HasEdge(u, before + 1, v));
}

TEST(GraphDeltaTest, ResolveLabelMintsUnseenNamesInFirstSeenOrder) {
  auto dict = std::make_shared<Interner>();
  const LabelId a = dict->Intern("a");
  dict->Intern("b");

  GraphDelta delta;
  // A known name resolves by lookup and defines nothing.
  EXPECT_EQ(ResolveLabel(*dict, "a", &delta), a);
  EXPECT_TRUE(delta.label_defs.empty());
  // Unseen names take the next ids in first-seen order; a repeat reuses
  // its definition. The dictionary itself is never touched.
  EXPECT_EQ(ResolveLabel(*dict, "x", &delta), 2u);
  EXPECT_EQ(ResolveLabel(*dict, "y", &delta), 3u);
  EXPECT_EQ(ResolveLabel(*dict, "x", &delta), 2u);
  EXPECT_EQ(delta.label_defs,
            (std::vector<LabelDef>{{2, "x"}, {3, "y"}}));
  EXPECT_EQ(dict->size(), 2u);

  // Patching the batch in interns exactly those ids.
  ASSERT_TRUE(PatchGraph(NodesOver(dict, 1), delta).ok());
  EXPECT_EQ(dict->Lookup("x"), 2u);
  EXPECT_EQ(dict->Lookup("y"), 3u);
}

TEST(GraphDeltaTest, WireV1BackCompat) {
  // Pure-insert batches keep the v1 framing byte for byte — archived PR 5/6
  // frames and pre-deletion consumers interoperate in both directions.
  GraphDelta delta;
  delta.sequence = 13;
  delta.inserts = {{1, 0, 2}, {2, 1, 3}};
  const std::string bytes = delta.Serialize();
  EXPECT_EQ(static_cast<unsigned char>(bytes[8]), 1u);

  // A v1 buffer assembled by hand (the PR 6 layout, independent of
  // Serialize) still deserializes, with empty deletes.
  std::string payload;
  PutU64(&payload, delta.sequence);
  PutU32(&payload, 2);
  for (const EdgeInsert& e : delta.inserts) {
    PutU32(&payload, e.src);
    PutU32(&payload, e.label);
    PutU32(&payload, e.dst);
  }
  std::string v1;
  PutU64(&v1, 0x41544C4452415047ull);  // "GPARDLTA"
  PutU32(&v1, 1);
  PutU64(&v1, payload.size());
  PutU64(&v1, Fnv1a64(payload));
  v1 += payload;
  EXPECT_EQ(v1, bytes);

  auto back = GraphDelta::Deserialize(v1);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, delta);
  EXPECT_TRUE(back->deletes.empty());
}

TEST(GraphDeltaTest, WireRejectsCorruption) {
  GraphDelta delta;
  delta.sequence = 7;
  delta.inserts = {{1, 0, 2}, {2, 1, 3}};
  const std::string bytes = delta.Serialize();

  auto expect_corrupt = [](const std::string& bad, const char* what) {
    auto r = GraphDelta::Deserialize(bad);
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << what;
  };

  expect_corrupt(bytes.substr(0, 10), "truncated header");
  expect_corrupt(bytes.substr(0, bytes.size() - 3), "truncated payload");
  expect_corrupt(bytes + "xx", "trailing bytes");
  {
    std::string bad = bytes;
    bad[0] ^= 0xFF;  // magic
    expect_corrupt(bad, "bad magic");
  }
  {
    std::string bad = bytes;
    bad[8] ^= 0xFF;  // version field follows the 8-byte magic
    expect_corrupt(bad, "unsupported version");
  }
  {
    std::string bad = bytes;
    bad[bytes.size() - 1] ^= 0x5A;  // payload bit-flip breaks the checksum
    expect_corrupt(bad, "checksum mismatch");
  }
}

TEST(GraphDeltaTest, WireV2RejectsCorruption) {
  GraphDelta delta;
  delta.sequence = 7;
  delta.inserts = {{1, 0, 2}, {2, 1, 3}};
  delta.deletes = {{5, 0, 6}};
  const std::string bytes = delta.Serialize();

  auto expect_corrupt = [](const std::string& bad, const std::string& what) {
    auto r = GraphDelta::Deserialize(bad);
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << what;
  };

  // Truncation at EVERY byte boundary — which covers every field boundary
  // (header fields, sequence, both counts, every triple) — must fail
  // cleanly: either a short header or a payload-size mismatch.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    expect_corrupt(bytes.substr(0, cut),
                   "truncated at byte " + std::to_string(cut));
  }
  expect_corrupt(bytes + "x", "trailing byte");
  {
    std::string bad = bytes;
    bad[0] ^= 0xFF;
    expect_corrupt(bad, "bad magic");
  }
  {
    std::string bad = bytes;
    bad[8] = 3;  // a version this codec does not speak
    expect_corrupt(bad, "unsupported version");
  }
  {
    std::string bad = bytes;
    bad.back() ^= 0x11;
    expect_corrupt(bad, "checksum mismatch");
  }

  // Oversized counts inside a correctly checksummed payload must be
  // bounded by the bytes present (no giant allocation), then rejected.
  auto restamp = [](std::string frame) {
    std::string sum;
    PutU64(&sum, Fnv1a64(frame.substr(28)));
    for (int i = 0; i < 8; ++i) frame[20 + i] = sum[i];
    return frame;
  };
  {
    std::string bad = bytes;
    for (int i = 0; i < 4; ++i) bad[28 + 8 + i] = static_cast<char>(0xff);
    expect_corrupt(restamp(bad), "oversized insert count");
  }
  {
    // Delete count sits after sequence + insert count + 2 triples.
    const size_t off = 28 + 8 + 4 + 2 * 12;
    std::string bad = bytes;
    for (int i = 0; i < 4; ++i) bad[off + i] = static_cast<char>(0xff);
    expect_corrupt(restamp(bad), "oversized delete count");
  }
}

/// A typed insert-only batch patches to the same CSR as a from-scratch
/// rebuild over the old edges plus the batch's insert span.
TEST(GraphDeltaTest, TypedPatchMatchesSpanPatch) {
  Graph g = MakeSynthetic(50, 120, 6, 3);
  GraphDelta delta;
  delta.inserts = {{0, g.node_label(1), 5}, {7, g.node_label(0), 3}};
  auto a = PatchGraph(g, delta);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a->changed());
  EXPECT_EQ(GraphBytes(a->graph),
            GraphBytes(RebuildWith(g, {}, delta.inserts)));
  EXPECT_EQ(a->edges_inserted + a->duplicates, delta.inserts.size());
}

TEST(GraphDeltaTest, RadiusBfsFindsLocalNodes) {
  // Path 0-1-2-3-4 (undirected reach through directed edges).
  GraphBuilder b;
  for (int i = 0; i < 5; ++i) b.AddNode("n");
  for (NodeId i = 0; i + 1 < 5; ++i) {
    ASSERT_TRUE(b.AddEdge(i, "e", i + 1).ok());
  }
  Graph g = std::move(b).Build();
  std::vector<NodeId> sources{2};
  auto within = NodesWithinRadiusOfAny(g, sources, 1);
  ASSERT_EQ(within.size(), 3u);
  EXPECT_EQ(within[0], (std::pair<NodeId, uint32_t>{2, 0}));
  // Radius 2 reaches everything.
  EXPECT_EQ(NodesWithinRadiusOfAny(g, sources, 2).size(), 5u);
  // Two sources dedup.
  std::vector<NodeId> both{0, 1};
  auto r = NodesWithinRadiusOfAny(g, both, 0);
  EXPECT_EQ(r.size(), 2u);
}

// ---------------------------------------------------------------------------
// Match-set-delta codec: evidence sets as positions into the parent list.
// ---------------------------------------------------------------------------

std::vector<uint32_t> RoundTrip(const std::vector<uint32_t>& child,
                                const std::vector<uint32_t>& parent) {
  MatchSetDelta d = EncodeMatchSet(child, parent);
  auto back = DecodeMatchSet(d, parent);
  EXPECT_TRUE(back.ok()) << back.status();
  return back.ok() ? *back : std::vector<uint32_t>{};
}

TEST(MatchDeltaTest, PicksTheSmallerPositionList) {
  std::vector<uint32_t> parent{2, 5, 9, 11, 40, 41, 80};
  // Child kept almost everything: removed-positions is the cheap side.
  std::vector<uint32_t> dense{2, 5, 9, 11, 41, 80};
  MatchSetDelta d = EncodeMatchSet(dense, parent);
  EXPECT_EQ(d.mode, MatchDeltaMode::kRemoved);
  EXPECT_EQ(d.payload, (std::vector<uint32_t>{4}));  // parent[4] == 40
  EXPECT_EQ(RoundTrip(dense, parent), dense);

  // Child kept almost nothing: kept-positions wins.
  std::vector<uint32_t> sparse{9};
  d = EncodeMatchSet(sparse, parent);
  EXPECT_EQ(d.mode, MatchDeltaMode::kKept);
  EXPECT_EQ(d.payload, (std::vector<uint32_t>{2}));
  EXPECT_EQ(RoundTrip(sparse, parent), sparse);

  EXPECT_EQ(RoundTrip({}, parent), (std::vector<uint32_t>{}));
  EXPECT_EQ(RoundTrip(parent, parent), parent);
}

TEST(MatchDeltaTest, NonSubsetFallsBackToFull) {
  std::vector<uint32_t> parent{2, 5, 9};
  std::vector<uint32_t> child{2, 7};  // 7 not in parent
  MatchSetDelta d = EncodeMatchSet(child, parent);
  EXPECT_EQ(d.mode, MatchDeltaMode::kFull);
  EXPECT_EQ(RoundTrip(child, parent), child);
}

TEST(MatchDeltaTest, WireRoundTripAndSizeAccounting) {
  std::vector<uint32_t> parent(100);
  for (uint32_t i = 0; i < 100; ++i) parent[i] = i * 3;
  // A dense child (9 of 10 kept): removed-positions collapse to a few
  // words, which is where the delta encoding beats the raw center list.
  std::vector<uint32_t> child;
  for (uint32_t i = 0; i < 100; ++i) {
    if (i % 10 != 7) child.push_back(i * 3);
  }

  MatchSetDelta d = EncodeMatchSet(child, parent);
  std::string buf;
  PutMatchSetDelta(&buf, d);
  EXPECT_EQ(buf.size(), DeltaEncodedBytes(child.size(), parent.size()));
  EXPECT_LT(buf.size(), FullEncodedBytes(child.size()));

  ByteReader r(buf);
  MatchSetDelta back;
  ASSERT_TRUE(ReadMatchSetDelta(&r, &back));
  EXPECT_EQ(back, d);
  auto values = DecodeMatchSet(back, parent);
  ASSERT_TRUE(values.ok()) << values.status();
  EXPECT_EQ(*values, child);
}

TEST(MatchDeltaTest, DecodeRejectsCorruptPositions) {
  std::vector<uint32_t> parent{2, 5, 9};
  {
    MatchSetDelta bad{MatchDeltaMode::kKept, {3}};  // out of range
    EXPECT_EQ(DecodeMatchSet(bad, parent).status().code(),
              StatusCode::kCorruption);
  }
  {
    MatchSetDelta bad{MatchDeltaMode::kKept, {1, 1}};  // not ascending
    EXPECT_EQ(DecodeMatchSet(bad, parent).status().code(),
              StatusCode::kCorruption);
  }
  {
    MatchSetDelta bad{MatchDeltaMode::kRemoved, {2, 0}};
    EXPECT_EQ(DecodeMatchSet(bad, parent).status().code(),
              StatusCode::kCorruption);
  }
}

// ---------------------------------------------------------------------------
// Rule snapshot v2: records + the checksummed evidence section.
// ---------------------------------------------------------------------------

RuleSetEvidence TinyEvidence(const PaperG1& g1) {
  RuleSetEvidence ev;
  ev.setup.x_label = g1.graph.labels().Name(g1.q.x_label);
  ev.setup.edge_label = g1.graph.labels().Name(g1.q.edge_label);
  ev.setup.y_label = g1.graph.labels().Name(g1.q.y_label);
  ev.setup.k = 2;
  ev.setup.sigma = 1;
  ev.q_pool = {1, 3, 5, 7};
  ev.qbar_pool = {2, 4};
  EvidenceEntry root;
  root.rule = g1.r1;
  root.parent = kEvidenceRoot;
  root.ant_probed = true;
  root.pr_matches = {1, 5, 7};  // subset of q_pool
  root.ant_matches = {4};       // subset of qbar_pool
  ev.entries.push_back(root);
  EvidenceEntry child;
  child.rule = g1.r5;
  child.parent = 0;
  child.ant_probed = true;
  child.pr_matches = {5};  // subset of the root's pr_matches
  child.ant_matches = {};
  ev.entries.push_back(child);
  return ev;
}

std::string RuleV2Bytes(const std::vector<RuleRecord>& rules,
                        const RuleSetEvidence& ev, const Interner& labels) {
  std::ostringstream os(std::ios::binary);
  EXPECT_TRUE(WriteRuleSetSnapshotV2(rules, ev, labels, os).ok());
  return os.str();
}

TEST(RuleSnapshotV2Test, RoundTripWithEvidence) {
  PaperG1 g1 = MakePaperG1();
  std::vector<RuleRecord> records{{g1.r1, 3, 0.75}, {g1.r5, 1, 1.0}};
  RuleSetEvidence ev = TinyEvidence(g1);
  std::string bytes = RuleV2Bytes(records, ev, g1.graph.labels());

  Interner fresh;
  std::istringstream is(bytes);
  auto snap = ReadRuleSetSnapshotAny(is, &fresh);
  ASSERT_TRUE(snap.ok()) << snap.status();
  ASSERT_TRUE(snap->has_evidence);
  EXPECT_EQ(snap->rules.size(), records.size());
  EXPECT_EQ(snap->evidence.setup, ev.setup);
  EXPECT_EQ(snap->evidence.q_pool, ev.q_pool);
  EXPECT_EQ(snap->evidence.qbar_pool, ev.qbar_pool);
  ASSERT_EQ(snap->evidence.entries.size(), ev.entries.size());
  for (size_t i = 0; i < ev.entries.size(); ++i) {
    EXPECT_EQ(snap->evidence.entries[i].parent, ev.entries[i].parent);
    EXPECT_EQ(snap->evidence.entries[i].ant_probed, ev.entries[i].ant_probed);
    EXPECT_EQ(snap->evidence.entries[i].pr_matches, ev.entries[i].pr_matches);
    EXPECT_EQ(snap->evidence.entries[i].ant_matches,
              ev.entries[i].ant_matches);
  }
  // Write -> read -> write is byte-identical, v2 included.
  Interner relabels = fresh;
  EXPECT_EQ(RuleV2Bytes(snap->rules, snap->evidence, relabels), bytes);
}

TEST(RuleSnapshotV2Test, V1ReadersAcceptV2AndViceVersa) {
  PaperG1 g1 = MakePaperG1();
  std::vector<RuleRecord> records{{g1.r1, 3, 0.75}};
  RuleSetEvidence ev = TinyEvidence(g1);
  ev.entries.resize(1);
  std::string v2 = RuleV2Bytes(records, ev, g1.graph.labels());
  std::string v1 = RuleBytes(records, g1.graph.labels());

  // Any-version reader on a v2 file: records plus the validated evidence.
  Interner fresh;
  std::istringstream is2(v2);
  auto with_evidence = ReadRuleSetSnapshotAny(is2, &fresh);
  ASSERT_TRUE(with_evidence.ok()) << with_evidence.status();
  EXPECT_EQ(with_evidence->rules.size(), records.size());
  EXPECT_TRUE(with_evidence->has_evidence);

  // Any-version reader on a v1 file: no evidence section.
  Interner fresh2;
  std::istringstream is1(v1);
  auto snap = ReadRuleSetSnapshotAny(is1, &fresh2);
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_FALSE(snap->has_evidence);
}

TEST(RuleSnapshotV2Test, RejectsCorruptEvidence) {
  PaperG1 g1 = MakePaperG1();
  std::vector<RuleRecord> records{{g1.r1, 3, 0.75}, {g1.r5, 1, 1.0}};
  RuleSetEvidence ev = TinyEvidence(g1);
  std::string bytes = RuleV2Bytes(records, ev, g1.graph.labels());
  {
    std::string bad = bytes;
    bad.back() ^= 0x01;  // evidence payload flip -> checksum mismatch
    Interner fresh;
    std::istringstream is(bad);
    EXPECT_FALSE(ReadRuleSetSnapshotAny(is, &fresh).ok());
  }
  {
    std::string bad = bytes.substr(0, bytes.size() - 7);  // torn evidence
    Interner fresh;
    std::istringstream is(bad);
    EXPECT_FALSE(ReadRuleSetSnapshotAny(is, &fresh).ok());
  }
  {
    // A child whose parent index points forward breaks evaluation order.
    RuleSetEvidence fwd = TinyEvidence(g1);
    fwd.entries[1].parent = 1;
    std::ostringstream os(std::ios::binary);
    Status st = WriteRuleSetSnapshotV2(records, fwd, g1.graph.labels(), os);
    if (st.ok()) {
      Interner fresh;
      std::istringstream is(os.str());
      EXPECT_FALSE(ReadRuleSetSnapshotAny(is, &fresh).ok());
    }
  }
}

}  // namespace
}  // namespace gpar
