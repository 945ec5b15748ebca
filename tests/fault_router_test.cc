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
#include "common/timer.h"
#include "graph/delta_journal.h"
#include "graph/generator.h"
#include "graph/graph_delta.h"
#include "graph/graph_snapshot.h"
#include "graph/paper_graphs.h"
#include "graph/stats.h"
#include "identify/eip.h"
#include "pattern/pattern_generator.h"
#include "rule/metrics.h"
#include "rule/rule_snapshot.h"
#include "serve/rule_server.h"
#include "serve/serve_session.h"

namespace gpar {
namespace {

/// Every failpoint site the serving tier registers. The gpar_lint
/// [failpoint-site] rule requires each name to appear in a test battery —
/// this array (and the loops below) is that coverage.
constexpr const char* kAllSites[] = {
    "journal.append", "journal.append_torn", "journal.replay",
    "snapshot.load",  "serve.publish",       "shard.query",
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

/// Each shard's partial supports, from a single server's rows restricted
/// to the centers the shard owns: supp_q / supp_qbar from each center's
/// q-class, supp_r from its P_R rows, supp_qqbar from its antecedent rows
/// at the LCWA negatives.
std::vector<SessionReply> PerShardSums(const ShardedRuleServer& s,
                                       const Workload& w) {
  auto single = RuleServer::Create(w.graph, w.records);
  EXPECT_TRUE(single.ok()) << single.status();
  if (!single.ok()) return {};
  auto q_rows = (*single)->Query(AllRequest());
  SessionRequest pr_request = AllRequest();
  pr_request.require_consequent = true;
  auto pr_rows = (*single)->Query(pr_request);
  EXPECT_TRUE(q_rows.ok() && pr_rows.ok());
  if (!q_rows.ok() || !pr_rows.ok()) return {};
  const Predicate& q = (*single)->predicate();
  const Graph& g = w.graph;
  std::vector<SessionReply> per_shard(s.num_shards());
  for (SessionReply& sub : per_shard) {
    sub.rule_evals.assign(w.records.size(), {});
  }
  const std::vector<NodeId>& cands = (*single)->candidates();
  for (size_t i = 0; i < cands.size(); ++i) {
    const NodeId v = cands[i];
    SessionReply& sub = per_shard[s.OwnerOf(v)];
    bool is_q = false;
    for (const AdjEntry& e : g.out_edges_labeled(v, q.edge_label)) {
      if (e.other != v && g.node_label(e.other) == q.y_label) is_q = true;
    }
    const bool is_qbar = !is_q && g.HasOutLabel(v, q.edge_label);
    if (is_q) ++sub.supp_q;
    if (is_qbar) ++sub.supp_qbar;
    for (uint32_t ri : pr_rows->matched[i]) ++sub.rule_evals[ri].supp_r;
    if (!is_qbar) continue;
    for (uint32_t ri : q_rows->matched[i]) ++sub.rule_evals[ri].supp_qqbar;
  }
  return per_shard;
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

/// 1-of-k shard loss: with retries off and a single injected query
/// failure, exactly one shard drops out of an all-centers request. The
/// degraded reply must be a correct subset — surviving shards' owned
/// centers keep their exact matched rows, the supports are the exact sums
/// over the survivors, and the confidences are recomputed from those
/// degraded sums.
TEST_F(FaultRouterTest, DegradedAllCentersReplyIsCorrectSubset) {
  Workload w = MakeWorkload(1);
  ShardedRuleServerOptions sopt;
  sopt.num_shards = 4;
  sopt.shard_options.num_workers = 2;
  sopt.max_shard_retries = 0;  // a single failure must degrade, not retry
  auto server = ShardedRuleServer::Create(w.graph, w.records, sopt);
  ASSERT_TRUE(server.ok()) << server.status();
  ShardedRuleServer& s = **server;
  const uint32_t k = s.num_shards();

  // Reference: the healthy reply, and each shard's own partial sums.
  auto full = s.Query(AllRequest());
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_FALSE(full->degraded);
  const std::vector<SessionReply> per_shard = PerShardSums(s, w);
  ASSERT_EQ(per_shard.size(), k);

  FailpointSpec spec;  // kUnavailable, fires once
  FailpointRegistry::Instance().Arm("shard.query", spec);
  auto degraded = s.Query(AllRequest());
  FailpointRegistry::Instance().DisarmAll();
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  ASSERT_TRUE(degraded->degraded);
  ASSERT_EQ(degraded->failed_shards.size(), 1u);
  EXPECT_EQ(degraded->stats.shards_failed, 1u);
  EXPECT_EQ(degraded->stats.retries, 0u);
  const uint32_t failed = degraded->failed_shards[0];

  // Matched rows: empty for the failed shard's centers, exact elsewhere.
  const std::vector<NodeId>& cands = s.candidates();
  ASSERT_EQ(degraded->matched.size(), cands.size());
  for (size_t i = 0; i < cands.size(); ++i) {
    if (s.OwnerOf(cands[i]) == failed) {
      EXPECT_TRUE(degraded->matched[i].empty()) << "center " << cands[i];
    } else {
      EXPECT_EQ(degraded->matched[i], full->matched[i])
          << "center " << cands[i];
    }
  }

  // Supports: exact sums over the survivors; confidence from those sums.
  uint64_t supp_q = 0, supp_qbar = 0;
  std::vector<uint64_t> supp_r(w.records.size(), 0);
  std::vector<uint64_t> supp_qqbar(w.records.size(), 0);
  for (uint32_t i = 0; i < k; ++i) {
    if (i == failed) continue;
    supp_q += per_shard[i].supp_q;
    supp_qbar += per_shard[i].supp_qbar;
    for (size_t ri = 0; ri < w.records.size(); ++ri) {
      supp_r[ri] += per_shard[i].rule_evals[ri].supp_r;
      supp_qqbar[ri] += per_shard[i].rule_evals[ri].supp_qqbar;
    }
  }
  EXPECT_EQ(degraded->supp_q, supp_q);
  EXPECT_EQ(degraded->supp_qbar, supp_qbar);
  for (size_t ri = 0; ri < w.records.size(); ++ri) {
    EXPECT_EQ(degraded->rule_evals[ri].supp_r, supp_r[ri]) << "rule " << ri;
    EXPECT_EQ(degraded->rule_evals[ri].supp_qqbar, supp_qqbar[ri])
        << "rule " << ri;
    EXPECT_DOUBLE_EQ(
        degraded->rule_evals[ri].conf,
        BayesFactorConf(supp_r[ri], supp_qbar, supp_qqbar[ri], supp_q))
        << "rule " << ri;
  }

  // And the site heals: the next request is whole again.
  auto healed = s.Query(AllRequest());
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE(healed->degraded);
  EXPECT_EQ(healed->matched, full->matched);
}

TEST_F(FaultRouterTest, DegradedPointReplyKeepsSurvivorRowsExact) {
  Workload w = MakeWorkload(2);
  ShardedRuleServerOptions sopt;
  sopt.num_shards = 4;
  sopt.shard_options.num_workers = 2;
  sopt.max_shard_retries = 0;
  auto server = ShardedRuleServer::Create(w.graph, w.records, sopt);
  ASSERT_TRUE(server.ok()) << server.status();
  ShardedRuleServer& s = **server;

  // One owned center per shard, so every shard is involved.
  SessionRequest point;
  for (uint32_t i = 0; i < s.num_shards(); ++i) {
    ASSERT_FALSE(s.shard(i).candidates().empty());
    point.centers.push_back(s.shard(i).candidates()[0]);
  }
  auto full = s.Query(point);
  ASSERT_TRUE(full.ok()) << full.status();

  FailpointSpec spec;
  FailpointRegistry::Instance().Arm("shard.query", spec);
  auto degraded = s.Query(point);
  FailpointRegistry::Instance().DisarmAll();
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  ASSERT_TRUE(degraded->degraded);
  ASSERT_EQ(degraded->failed_shards.size(), 1u);
  const uint32_t failed = degraded->failed_shards[0];
  for (size_t i = 0; i < point.centers.size(); ++i) {
    if (s.OwnerOf(point.centers[i]) == failed) {
      EXPECT_TRUE(degraded->matched[i].empty());
    } else {
      EXPECT_EQ(degraded->matched[i], full->matched[i])
          << "center " << point.centers[i];
    }
  }
  // Entities are derived from the surviving rows only.
  for (NodeId e : degraded->entities) {
    EXPECT_NE(s.OwnerOf(e), failed);
  }
}

/// A transient failure is retried and masked: the reply is whole, only the
/// retry counter betrays that anything happened.
TEST_F(FaultRouterTest, TransientQueryFailureIsRetriedAndMasked) {
  Workload w = MakeWorkload(1);
  ShardedRuleServerOptions sopt;
  sopt.num_shards = 2;
  sopt.shard_options.num_workers = 2;
  sopt.retry_backoff_micros = 50;  // keep the test fast
  auto server = ShardedRuleServer::Create(w.graph, w.records, sopt);
  ASSERT_TRUE(server.ok()) << server.status();
  ShardedRuleServer& s = **server;
  auto full = s.Query(AllRequest());
  ASSERT_TRUE(full.ok());

  FailpointSpec spec;  // kUnavailable, fires once — the retry succeeds
  FailpointRegistry::Instance().Arm("shard.query", spec);
  auto reply = s.Query(AllRequest());
  FailpointRegistry::Instance().DisarmAll();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_FALSE(reply->degraded);
  EXPECT_TRUE(reply->failed_shards.empty());
  EXPECT_GE(reply->stats.retries, 1u);
  EXPECT_EQ(reply->matched, full->matched);
  EXPECT_EQ(reply->supp_q, full->supp_q);
  EXPECT_GE(s.lifetime_stats().retries, 1u);
}

TEST_F(FaultRouterTest, DeadlineBoundsTheRetryBudget) {
  Workload w = MakeWorkload(1);
  ShardedRuleServerOptions sopt;
  sopt.num_shards = 2;
  sopt.shard_options.num_workers = 2;
  sopt.max_shard_retries = 5;
  sopt.retry_backoff_micros = 200000;  // 0.2s — larger than the deadline
  auto server = ShardedRuleServer::Create(w.graph, w.records, sopt);
  ASSERT_TRUE(server.ok()) << server.status();
  ShardedRuleServer& s = **server;

  SessionRequest bad = AllRequest();
  bad.deadline_seconds = -1;
  EXPECT_EQ(s.Query(bad).status().code(), StatusCode::kInvalidArgument);

  FailpointSpec spec;
  spec.fires = 0;
  FailpointRegistry::Instance().Arm("shard.query", spec);
  SessionRequest req = AllRequest();
  req.deadline_seconds = 0.05;
  // The first backoff would overrun the deadline, so no retry is taken:
  // both shards degrade and the reply returns before one 0.2 s backoff.
  Timer timer;
  auto r = s.Query(req);
  const double elapsed = timer.Seconds();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->degraded);
  EXPECT_EQ(r->failed_shards, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(r->stats.retries, 0u);
  EXPECT_LT(elapsed, 0.2);
  FailpointRegistry::Instance().DisarmAll();
  EXPECT_TRUE(s.Query(AllRequest()).ok());
}

/// Sweep EVERY registered failpoint site through the sharded deployment:
/// each injection either degrades (replies stay correct subsets), fails
/// the operation cleanly (nothing half-published), or fails recovery with
/// the injected error — and after disarming, the deployment (or a fresh
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
  sopt.max_shard_retries = 0;

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
    if (site_name == "journal.append_torn") spec.torn_bytes = 9;
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
    if (site_name == "shard.query") {
      auto r = s.Query(AllRequest());
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_TRUE(r->degraded);  // every shard fails — fully degraded
      EXPECT_EQ(r->failed_shards.size(), 2u);
    } else {
      // journal.append / journal.append_torn / serve.publish: the write
      // pipeline fails before anything is published.
      EXPECT_FALSE(s.ApplyDelta(d).ok());
      EXPECT_EQ(s.delta_sequence(), 0u);
      FailpointRegistry::Instance().DisarmAll();
      auto after = s.Query(AllRequest());
      ASSERT_TRUE(after.ok());
      EXPECT_FALSE(after->degraded);
      EXPECT_EQ(after->matched, reference->matched);
      continue;
    }
    FailpointRegistry::Instance().DisarmAll();
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
