#include "serve/sharded_rule_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "graph/delta_journal.h"
#include "graph/generator.h"
#include "graph/graph_delta.h"
#include "graph/graph_snapshot.h"
#include "graph/paper_graphs.h"
#include "graph/stats.h"
#include "identify/eip.h"
#include "pattern/pattern_generator.h"
#include "rule/rule_snapshot.h"
#include "serve/serve_session.h"

namespace gpar {
namespace {

/// Every failpoint site the serving tier registers. The gpar_lint
/// [failpoint-site] rule requires each name to appear in a test battery —
/// this array (and the loops below) is that coverage.
constexpr const char* kAllSites[] = {
    "journal.append", "journal.append_torn", "journal.replay",
    "snapshot.load",  "serve.publish",       "checkpoint.write_torn",
};

struct Workload {
  Graph graph;
  std::vector<Gpar> sigma;
  std::vector<RuleRecord> records;
};

/// Same seeded workloads as the ServeEquivalence batteries.
Workload MakeWorkload(uint64_t seed) {
  Workload w;
  w.graph = (seed % 3 == 0) ? MakePokecLike(1, seed)
                            : MakeSynthetic(600, 1800, 20, seed);
  auto freq = FrequentEdgePatterns(w.graph);
  EXPECT_FALSE(freq.empty());
  Predicate q{freq[0].src_label, freq[0].edge_label, freq[0].dst_label};
  GparGenOptions gopt;
  gopt.num_nodes = 4;
  gopt.num_edges = 4;
  gopt.max_radius = 2;
  gopt.seed = seed * 31 + 1;
  w.sigma = GenerateGparWorkload(w.graph, q, 5, gopt);
  EXPECT_GE(w.sigma.size(), 2u);
  for (const Gpar& r : w.sigma) w.records.push_back({r, 0, 0.0});
  return w;
}

SessionRequest AllRequest(double eta = 0.5) {
  SessionRequest req;
  req.all_centers = true;
  req.eta = eta;
  return req;
}

/// A delta of brand-new edges between existing nodes (no duplicates), so
/// the applied set equals the input and reference graphs are easy to
/// compute.
GraphDelta FreshEdgesDelta(const Graph& g, uint64_t seed, size_t k) {
  std::mt19937_64 rng(seed);
  std::vector<LabelId> edge_labels;
  for (NodeId v = 0; v < g.num_nodes() && edge_labels.size() < 8; ++v) {
    for (const AdjEntry& e : g.out_edges(v)) {
      if (std::find(edge_labels.begin(), edge_labels.end(), e.label) ==
          edge_labels.end()) {
        edge_labels.push_back(e.label);
      }
    }
  }
  GraphDelta d;
  while (d.inserts.size() < k) {
    NodeId src = static_cast<NodeId>(rng() % g.num_nodes());
    NodeId dst = static_cast<NodeId>(rng() % g.num_nodes());
    LabelId l = edge_labels[rng() % edge_labels.size()];
    bool present = false;
    for (const AdjEntry& e : g.out_edges(src)) {
      if (e.label == l && e.other == dst) present = true;
    }
    for (const EdgeInsert& e : d.inserts) {
      if (e.src == src && e.label == l && e.dst == dst) present = true;
    }
    if (!present) d.inserts.push_back({src, l, dst});
  }
  return d;
}

std::string GraphBytes(const Graph& g) {
  std::ostringstream os(std::ios::binary);
  EXPECT_TRUE(WriteGraphSnapshot(g, os).ok());
  return os.str();
}

class FaultRouterTest : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }

  std::string Path(const std::string& name, const char* ext) {
    std::string p =
        ::testing::TempDir() + "/" + name + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() + ext;
    std::remove(p.c_str());  // journals append — reruns must start fresh
    return p;
  }
};

/// Sweep EVERY registered failpoint site through the sharded deployment:
/// each injection either fails the operation cleanly (nothing
/// half-published, no journal frame lost) or fails recovery with the
/// injected error — and after disarming, the deployment (or a fresh
/// recovery) is whole again.
TEST_F(FaultRouterTest, EverySiteFailsCleanlyThroughTheRouter) {
  Workload w = MakeWorkload(1);
  const std::string gpath = Path("graph", ".snap");
  const std::string rpath = Path("rules", ".snap");
  ASSERT_TRUE(WriteGraphSnapshotFile(w.graph, gpath).ok());
  ASSERT_TRUE(
      WriteRuleSetSnapshotFile(w.records, w.graph.labels(), rpath).ok());
  ShardedRuleServerOptions sopt;
  sopt.num_shards = 2;
  sopt.shard_options.num_workers = 2;

  for (const char* site : kAllSites) {
    SCOPED_TRACE(site);
    const std::string site_name = site;
    const std::string jpath = Path(std::string("wal_") + site, ".wal");
    auto server =
        ShardedRuleServer::Recover(gpath, rpath, jpath, sopt);
    ASSERT_TRUE(server.ok()) << server.status();
    ShardedRuleServer& s = **server;
    auto reference = s.Query(AllRequest());
    ASSERT_TRUE(reference.ok());

    FailpointSpec spec;
    spec.code = StatusCode::kIoError;
    spec.fires = 0;
    if (site_name == "journal.append_torn" ||
        site_name == "checkpoint.write_torn") {
      spec.torn_bytes = 9;
    }
    FailpointRegistry::Instance().Arm(site, spec);

    GraphDelta d = FreshEdgesDelta(w.graph, 41, 3);
    if (site_name == "snapshot.load" || site_name == "journal.replay") {
      // Recovery-path sites: a fresh Recover fails with the injection and
      // succeeds after disarm.
      EXPECT_FALSE(ShardedRuleServer::Recover(gpath, rpath, jpath, sopt).ok());
      FailpointRegistry::Instance().DisarmAll();
      EXPECT_TRUE(ShardedRuleServer::Recover(gpath, rpath, jpath, sopt).ok());
      continue;
    }
    if (site_name == "checkpoint.write_torn") {
      // The snapshot write tears before anything is replaced: the
      // checkpoint fails and the journal keeps its frame.
      ASSERT_TRUE(s.ApplyDelta(d).ok());
      const std::string ckpt = Path("ckpt", ".snap");
      EXPECT_FALSE(s.Checkpoint(ckpt).ok());
      auto frames = DeltaJournal::ReadAll(jpath);
      ASSERT_TRUE(frames.ok());
      ASSERT_EQ(frames->size(), 1u);
      EXPECT_FALSE((*frames)[0].inserts.empty());
      FailpointRegistry::Instance().DisarmAll();
      EXPECT_TRUE(s.Checkpoint(ckpt).ok());
      continue;
    }
    // journal.append / journal.append_torn / serve.publish: the write
    // pipeline fails before anything is published.
    EXPECT_FALSE(s.ApplyDelta(d).ok());
    EXPECT_EQ(s.delta_sequence(), 0u);
    FailpointRegistry::Instance().DisarmAll();
    auto after = s.Query(AllRequest());
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->matched, reference->matched);
  }
}

/// Sharded crash recovery: a journaled delta stream survives the loss of
/// the whole deployment — Recover replays it through the normal publish
/// path and every shard comes back exact.
TEST_F(FaultRouterTest, ShardedRecoverMatchesLiveDeployment) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Workload w = MakeWorkload(seed);
    const std::string gpath = Path("graph" + std::to_string(seed), ".snap");
    const std::string rpath = Path("rules" + std::to_string(seed), ".snap");
    const std::string jpath = Path("wal" + std::to_string(seed), ".wal");
    ASSERT_TRUE(WriteGraphSnapshotFile(w.graph, gpath).ok());
    ASSERT_TRUE(
        WriteRuleSetSnapshotFile(w.records, w.graph.labels(), rpath).ok());
    ShardedRuleServerOptions sopt;
    sopt.num_shards = 2;
    sopt.shard_options.num_workers = 2;

    auto live = ShardedRuleServer::Create(w.graph, w.records, sopt);
    ASSERT_TRUE(live.ok()) << live.status();
    ASSERT_TRUE((*live)->AttachJournal(jpath).ok());
    Graph cur = w.graph;
    for (int b = 0; b < 3; ++b) {
      GraphDelta d = FreshEdgesDelta(cur, seed * 97 + b, 4);
      auto p = PatchGraph(cur, d);
      ASSERT_TRUE(p.ok());
      cur = std::move(p->graph);
      auto ds = (*live)->ApplyDelta(d);
      ASSERT_TRUE(ds.ok()) << ds.status();
      EXPECT_EQ(ds->sequence, static_cast<uint64_t>(b) + 1);
    }
    auto live_all = (*live)->Query(AllRequest());
    ASSERT_TRUE(live_all.ok());

    // "Crash" and recover: same graph, same sequence.
    live->reset();
    JournalReplayStats replay;
    auto rec =
        ShardedRuleServer::Recover(gpath, rpath, jpath, sopt, {}, &replay);
    ASSERT_TRUE(rec.ok()) << rec.status();
    EXPECT_EQ(replay.frames, 3u);
    EXPECT_EQ((*rec)->delta_sequence(), 3u);
    EXPECT_EQ(GraphBytes(*(*rec)->graph_snapshot()), GraphBytes(cur));
    auto rec_all = (*rec)->Query(AllRequest());
    ASSERT_TRUE(rec_all.ok());
    EXPECT_EQ(rec_all->matched, live_all->matched);
    EXPECT_EQ(rec_all->supp_q, live_all->supp_q);
    EXPECT_EQ(rec_all->supp_qbar, live_all->supp_qbar);

    // Checkpoint + recover from the fresh snapshot: the journal floor
    // keeps sequences monotone, the answers keep matching.
    const std::string ckpt = Path("ckpt" + std::to_string(seed), ".snap");
    ASSERT_TRUE((*rec)->Checkpoint(ckpt).ok());
    GraphDelta d4 = FreshEdgesDelta(cur, seed * 97 + 9, 4);
    auto p4 = PatchGraph(cur, d4);
    ASSERT_TRUE(p4.ok());
    auto ds4 = (*rec)->ApplyDelta(d4);
    ASSERT_TRUE(ds4.ok());
    EXPECT_EQ(ds4->sequence, 4u);
    auto rec2 = ShardedRuleServer::Recover(ckpt, rpath, jpath, sopt);
    ASSERT_TRUE(rec2.ok()) << rec2.status();
    EXPECT_EQ(GraphBytes(*(*rec2)->graph_snapshot()), GraphBytes(p4->graph));
    auto a = (*rec2)->Query(AllRequest());
    auto b = (*rec)->Query(AllRequest());
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->matched, b->matched);
    EXPECT_EQ(a->supp_q, b->supp_q);
  }
}

/// Sharded twin of JournalRecovery.ReplaysLabelsMintedAfterTheSnapshot:
/// a label minted by a live batch (`ResolveLabel`) rides the v3 wire into
/// the journal, so replay resolves it — recovery against the pre-mint
/// snapshot is exact.
TEST_F(FaultRouterTest, RecoverReinternsLabelsMintedLive) {
  Workload w = MakeWorkload(1);
  const std::string gpath = Path("graph", ".snap");
  const std::string rpath = Path("rules", ".snap");
  const std::string jpath = Path("wal", ".wal");
  ASSERT_TRUE(WriteGraphSnapshotFile(w.graph, gpath).ok());
  ASSERT_TRUE(
      WriteRuleSetSnapshotFile(w.records, w.graph.labels(), rpath).ok());
  ShardedRuleServerOptions sopt;
  sopt.num_shards = 2;
  sopt.shard_options.num_workers = 2;

  auto live = ShardedRuleServer::Load(gpath, rpath, sopt);
  ASSERT_TRUE(live.ok()) << live.status();
  ASSERT_TRUE((*live)->AttachJournal(jpath).ok());
  GraphDelta d;
  const LabelId minted = ResolveLabel((*live)->graph_snapshot()->labels(),
                                      "minted_after_snapshot", &d);
  d.inserts = {{1, minted, 2}, {3, minted, 4}};
  auto ds = (*live)->ApplyDelta(d);
  ASSERT_TRUE(ds.ok()) << ds.status();
  auto live_all = (*live)->Query(AllRequest());
  ASSERT_TRUE(live_all.ok());
  const std::string live_bytes = GraphBytes(*(*live)->graph_snapshot());

  live->reset();
  auto rec = ShardedRuleServer::Recover(gpath, rpath, jpath, sopt);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(GraphBytes(*(*rec)->graph_snapshot()), live_bytes);
  EXPECT_EQ(
      (*rec)->graph_snapshot()->labels().Lookup("minted_after_snapshot"),
      minted);
  auto rec_all = (*rec)->Query(AllRequest());
  ASSERT_TRUE(rec_all.ok());
  EXPECT_EQ(rec_all->matched, live_all->matched);
  EXPECT_EQ(rec_all->supp_q, live_all->supp_q);
}

}  // namespace
}  // namespace gpar
