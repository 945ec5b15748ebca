#include "serve/rule_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generator.h"
#include "graph/graph_delta.h"
#include "graph/graph_snapshot.h"
#include "graph/stats.h"
#include "identify/eip.h"
#include "match/matcher.h"
#include "pattern/pattern_generator.h"
#include "rule/rule_snapshot.h"

namespace gpar {
namespace {

struct Workload {
  Graph graph;
  std::vector<Gpar> sigma;
  std::vector<RuleRecord> records;
};

/// A seeded (graph, Σ) pair: small synthetic or Pokec-like graph with a
/// lifted GPAR workload on its most frequent predicate.
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

SessionRequest AllRequest(double eta, bool require_consequent = false) {
  SessionRequest req;
  req.all_centers = true;
  req.eta = eta;
  req.require_consequent = require_consequent;
  return req;
}

GraphDelta InsertDelta(std::vector<EdgeInsert> inserts) {
  GraphDelta d;
  d.inserts = std::move(inserts);
  return d;
}

/// Field-for-field Σ(x, G, η) equality; either side may be a batch
/// `EipResult` or an `all_centers` `SessionReply`.
template <typename Got, typename Want>
void ExpectSameAnswer(const Got& got, const Want& want,
                      const std::string& what) {
  EXPECT_EQ(got.entities, want.entities) << what;
  EXPECT_EQ(got.supp_q, want.supp_q) << what;
  EXPECT_EQ(got.supp_qbar, want.supp_qbar) << what;
  ASSERT_EQ(got.rule_evals.size(), want.rule_evals.size()) << what;
  for (size_t i = 0; i < want.rule_evals.size(); ++i) {
    EXPECT_EQ(got.rule_evals[i].supp_r, want.rule_evals[i].supp_r)
        << what << " rule " << i;
    EXPECT_EQ(got.rule_evals[i].supp_qqbar, want.rule_evals[i].supp_qqbar)
        << what << " rule " << i;
    EXPECT_DOUBLE_EQ(got.rule_evals[i].conf, want.rule_evals[i].conf)
        << what << " rule " << i;
  }
}

EipResult BatchIdentify(const Graph& g, const std::vector<Gpar>& sigma,
                        double eta, bool require_consequent) {
  EipOptions opt;
  opt.algorithm = EipAlgorithm::kMatch;
  opt.num_workers = 3;
  opt.eta = eta;
  opt.require_consequent = require_consequent;
  auto r = IdentifyEntities(g, sigma, opt);
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).value();
}

/// Direct per-(rule, center) oracle for point queries: fresh whole-graph
/// matching, no caches.
std::vector<uint32_t> OracleMatched(const Graph& g,
                                    const std::vector<Gpar>& sigma,
                                    NodeId center, bool require_consequent) {
  VF2Matcher m(g);
  std::vector<char> other_ok = OtherComponentsOk(g, sigma);
  std::vector<uint32_t> out;
  for (uint32_t ri = 0; ri < sigma.size(); ++ri) {
    bool hit;
    if (require_consequent) {
      hit = m.ExistsAt(sigma[ri].pr(), center);
    } else {
      hit = m.ExistsAt(sigma[ri].x_component(), center) && other_ok[ri] != 0;
    }
    if (hit) out.push_back(ri);
  }
  return out;
}

std::vector<EdgeInsert> MakeDelta(const Graph& g, uint64_t seed, size_t k) {
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
  std::vector<EdgeInsert> inserts;
  for (size_t i = 0; i < k; ++i) {
    NodeId src = static_cast<NodeId>(rng() % g.num_nodes());
    NodeId dst = static_cast<NodeId>(rng() % g.num_nodes());
    LabelId l = edge_labels[rng() % edge_labels.size()];
    inserts.push_back({src, l, dst});
  }
  return inserts;
}

/// Snapshot bytes as a complete graph fingerprint (the snapshot writer is
/// deterministic, so byte equality means CSR equality).
std::string GraphBytes(const Graph& g) {
  std::ostringstream os(std::ios::binary);
  EXPECT_TRUE(WriteGraphSnapshot(g, os).ok());
  return os.str();
}

/// Picks a node with at least one out-edge, scanning forward from a random
/// start (the synthetic generators leave some nodes bare).
NodeId PickSourceNode(const Graph& g, std::mt19937_64& rng) {
  NodeId v = static_cast<NodeId>(rng() % g.num_nodes());
  while (g.out_edges(v).empty()) v = (v + 1) % g.num_nodes();
  return v;
}

/// A mutation batch mixing both directions: `k` random inserts over the
/// graph's discovered edge labels, `k` deletes of real out-edges, one
/// delete of a (almost surely) absent edge — tolerated, counted missing —
/// and, on even seeds, a delete-then-reinsert of one edge within the same
/// batch, which must leave the edge present.
GraphDelta MakeMutationDelta(const Graph& g, uint64_t seed, size_t k) {
  std::mt19937_64 rng(seed);
  GraphDelta d;
  d.inserts = MakeDelta(g, seed * 5 + 1, k);
  for (size_t i = 0; i < k; ++i) {
    NodeId v = PickSourceNode(g, rng);
    const auto edges = g.out_edges(v);
    const AdjEntry& e = edges[rng() % edges.size()];
    d.deletes.push_back({v, e.label, e.other});
  }
  d.deletes.push_back({static_cast<NodeId>(rng() % g.num_nodes()),
                       static_cast<LabelId>(g.labels().size() - 1),
                       static_cast<NodeId>(rng() % g.num_nodes())});
  if (seed % 2 == 0) {
    NodeId v = PickSourceNode(g, rng);
    const AdjEntry& e = g.out_edges(v)[0];
    d.deletes.push_back({v, e.label, e.other});
    d.inserts.push_back({v, e.label, e.other});
  }
  return d;
}

std::vector<NodeId> SampleCenters(const RuleServer& server, uint64_t seed,
                                  size_t k) {
  std::mt19937_64 rng(seed);
  std::vector<NodeId> centers;
  const auto& cands = server.candidates();
  for (size_t i = 0; i < k && !cands.empty(); ++i) {
    centers.push_back(cands[rng() % cands.size()]);
  }
  // A couple of non-candidates (legal; they match nothing).
  centers.push_back(
      static_cast<NodeId>(rng() % server.graph_snapshot()->num_nodes()));
  return centers;
}

/// The acceptance battery: RuleServer answers — cold, warm-cache, and after
/// ApplyDelta — identical to a fresh batch IdentifyEntities run on the
/// equivalent graph, across seeds and worker counts.
TEST(ServeEquivalence, ColdWarmAndDeltaMatchBatch) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Workload w = MakeWorkload(seed);

    EipResult batch_lo = BatchIdentify(w.graph, w.sigma, 0.5, false);
    EipResult batch_hi = BatchIdentify(w.graph, w.sigma, 1.2, false);
    EipResult batch_pr = BatchIdentify(w.graph, w.sigma, 0.5, true);

    GraphDelta delta = InsertDelta(MakeDelta(w.graph, seed * 977 + 5, 6));
    auto patchref = PatchGraph(w.graph, delta);
    ASSERT_TRUE(patchref.ok());
    EipResult batch_patched =
        BatchIdentify(patchref->graph, w.sigma, 0.5, false);

    for (uint32_t n : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("n=" + std::to_string(n));
      RuleServerOptions opt;
      opt.num_workers = n;
      auto server = RuleServer::Create(w.graph, w.records, opt);
      ASSERT_TRUE(server.ok()) << server.status();
      RuleServer& s = **server;

      // Cold.
      auto cold = s.Query(AllRequest(0.5));
      ASSERT_TRUE(cold.ok()) << cold.status();
      ExpectSameAnswer(*cold, batch_lo, "cold");
      EXPECT_GT(cold->stats.cache_probes, 0u);

      // Warm: different eta, P_R semantics — all from cache.
      auto warm = s.Query(AllRequest(1.2));
      ASSERT_TRUE(warm.ok());
      ExpectSameAnswer(*warm, batch_hi, "warm");
      EXPECT_EQ(warm->stats.cache_probes, 0u);
      EXPECT_GT(warm->stats.cache_hits, 0u);
      auto warm_pr = s.Query(AllRequest(0.5, true));
      ASSERT_TRUE(warm_pr.ok());
      ExpectSameAnswer(*warm_pr, batch_pr, "warm require_consequent");

      // Point queries against the fresh-match oracle.
      SessionRequest req;
      req.centers = SampleCenters(s, seed + n, 6);
      auto reply = s.Query(req);
      ASSERT_TRUE(reply.ok()) << reply.status();
      ASSERT_EQ(reply->matched.size(), req.centers.size());
      for (size_t i = 0; i < req.centers.size(); ++i) {
        EXPECT_EQ(reply->matched[i],
                  OracleMatched(w.graph, w.sigma, req.centers[i], false))
            << "center " << req.centers[i];
      }

      // Delta-then-query == rebuild-then-query.
      auto ds = s.ApplyDelta(delta);
      ASSERT_TRUE(ds.ok()) << ds.status();
      auto after = s.Query(AllRequest(0.5));
      ASSERT_TRUE(after.ok());
      ExpectSameAnswer(*after, batch_patched, "after delta");
      // Locality: a 6-edge delta must not flush the whole cache.
      EXPECT_LE(after->stats.cache_probes, cold->stats.cache_probes);

      // Point queries on the patched graph (exercises the partial per-rule
      // probe path on half-invalidated centers).
      auto reply2 = s.Query(req);
      ASSERT_TRUE(reply2.ok());
      for (size_t i = 0; i < req.centers.size(); ++i) {
        EXPECT_EQ(reply2->matched[i],
                  OracleMatched(patchref->graph, w.sigma, req.centers[i],
                                false))
            << "patched center " << req.centers[i];
      }
    }
  }
}

TEST(ServeEquivalence, SnapshotLoadRoundTrip) {
  // mine -> write snapshot pair -> Load: same answers as in-memory Create.
  Workload w = MakeWorkload(4);
  std::string dir = ::testing::TempDir();
  std::string gpath = dir + "/serve_test_graph.snap";
  std::string rpath = dir + "/serve_test_rules.snap";
  ASSERT_TRUE(WriteGraphSnapshotFile(w.graph, gpath).ok());
  ASSERT_TRUE(
      WriteRuleSetSnapshotFile(w.records, w.graph.labels(), rpath).ok());

  auto loaded = RuleServer::Load(gpath, rpath);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto in_memory = RuleServer::Create(w.graph, w.records);
  ASSERT_TRUE(in_memory.ok());

  auto a = (*loaded)->Query(AllRequest(0.7));
  auto b = (*in_memory)->Query(AllRequest(0.7));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameAnswer(*a, *b, "loaded vs in-memory");
  EXPECT_EQ((*loaded)->rules().size(), w.records.size());
}

TEST(ServeEquivalence, DeltaEquivalentToFreshServer) {
  Workload w = MakeWorkload(5);
  GraphDelta delta = InsertDelta(MakeDelta(w.graph, 123, 10));
  auto patchref = PatchGraph(w.graph, delta);
  ASSERT_TRUE(patchref.ok());

  auto live = RuleServer::Create(w.graph, w.records);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE((*live)->Query(AllRequest(0.5)).ok());  // warm up pre-delta
  auto ds = (*live)->ApplyDelta(delta);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->edges_inserted, patchref->edges_inserted);

  auto fresh = RuleServer::Create(patchref->graph, w.records);
  ASSERT_TRUE(fresh.ok());

  auto a = (*live)->Query(AllRequest(0.5));
  auto b = (*fresh)->Query(AllRequest(0.5));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameAnswer(*a, *b, "delta-maintained vs fresh");
}

/// The insert+delete acceptance battery: a randomized interleaved mutation
/// stream, checked against fresh batch mining at cold, warm, mid-stream,
/// and final checkpoints, and against a from-scratch server on the final
/// edge list.
TEST(DeltaStreamEquivalence, InterleavedStreamMatchesBatchAndFresh) {
  constexpr int kBatches = 4;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Workload w = MakeWorkload(seed);

    // The reference trajectory: the graph after each batch, rebuilt by
    // PatchGraph outside any server.
    std::vector<GraphDelta> stream;
    std::vector<Graph> after;
    after.reserve(kBatches);
    for (int b = 0; b < kBatches; ++b) {
      const Graph& cur = (b == 0) ? w.graph : after.back();
      GraphDelta d = MakeMutationDelta(cur, seed * 613 + b, 5);
      d.sequence = static_cast<uint64_t>(b) + 1;
      auto p = PatchGraph(cur, d);
      ASSERT_TRUE(p.ok()) << p.status();
      after.push_back(std::move(p->graph));
      stream.push_back(std::move(d));
    }
    const Graph& mid_graph = after[kBatches / 2 - 1];
    const Graph& final_graph = after.back();

    EipResult batch_cold = BatchIdentify(w.graph, w.sigma, 0.5, false);
    EipResult batch_mid = BatchIdentify(mid_graph, w.sigma, 0.5, false);
    EipResult batch_final = BatchIdentify(final_graph, w.sigma, 0.5, false);

    for (uint32_t n : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("n=" + std::to_string(n));
      RuleServerOptions opt;
      opt.num_workers = n;
      auto server = RuleServer::Create(w.graph, w.records, opt);
      ASSERT_TRUE(server.ok()) << server.status();
      RuleServer& s = **server;

      // Cold, then warm (all from cache).
      auto cold = s.Query(AllRequest(0.5));
      ASSERT_TRUE(cold.ok()) << cold.status();
      ExpectSameAnswer(*cold, batch_cold, "cold");
      auto warm = s.Query(AllRequest(0.5));
      ASSERT_TRUE(warm.ok());
      ExpectSameAnswer(*warm, batch_cold, "warm");
      EXPECT_EQ(warm->stats.cache_probes, 0u);

      // Mid-stream checkpoint.
      for (int b = 0; b < kBatches / 2; ++b) {
        auto ds = s.ApplyDelta(stream[b]);
        ASSERT_TRUE(ds.ok()) << ds.status();
      }
      auto mid = s.Query(AllRequest(0.5));
      ASSERT_TRUE(mid.ok());
      ExpectSameAnswer(*mid, batch_mid, "mid-stream");

      // Final checkpoint, against batch AND a fresh server on the final
      // edge list.
      for (int b = kBatches / 2; b < kBatches; ++b) {
        auto ds = s.ApplyDelta(stream[b]);
        ASSERT_TRUE(ds.ok()) << ds.status();
      }
      EXPECT_EQ(GraphBytes(*s.graph_snapshot()), GraphBytes(final_graph));
      auto fin = s.Query(AllRequest(0.5));
      ASSERT_TRUE(fin.ok());
      ExpectSameAnswer(*fin, batch_final, "final vs batch");

      auto fresh = RuleServer::Create(final_graph, w.records, opt);
      ASSERT_TRUE(fresh.ok());
      auto fresh_ans = (*fresh)->Query(AllRequest(0.5));
      ASSERT_TRUE(fresh_ans.ok());
      ExpectSameAnswer(*fin, *fresh_ans, "final vs fresh server");

      // Point queries against the fresh-match oracle on the final graph.
      SessionRequest req;
      req.centers = SampleCenters(s, seed * 7 + n, 5);
      auto reply = s.Query(req);
      ASSERT_TRUE(reply.ok()) << reply.status();
      for (size_t i = 0; i < req.centers.size(); ++i) {
        EXPECT_EQ(reply->matched[i],
                  OracleMatched(final_graph, w.sigma, req.centers[i], false))
            << "center " << req.centers[i];
      }
    }
  }
}

/// Deleting every q-edge out of every candidate drives supp(q) to zero —
/// the non-monotone direction a pure-insert pipeline never exercises.
TEST(DeltaStreamEquivalence, DeletesCollapseSupportBelowSigma) {
  Workload w = MakeWorkload(1);
  auto server = RuleServer::Create(w.graph, w.records);
  ASSERT_TRUE(server.ok());
  RuleServer& s = **server;
  auto before = s.Query(AllRequest(0.5));
  ASSERT_TRUE(before.ok());
  EXPECT_GT(before->supp_q, 0u);

  const Predicate& q = s.predicate();
  GraphDelta wipe;
  wipe.sequence = 1;
  for (NodeId c : s.candidates()) {
    for (const AdjEntry& e : w.graph.out_edges(c)) {
      if (e.label == q.edge_label &&
          w.graph.node_label(e.other) == q.y_label) {
        wipe.deletes.push_back({c, e.label, e.other});
      }
    }
  }
  ASSERT_FALSE(wipe.deletes.empty());
  auto ds = s.ApplyDelta(wipe);
  ASSERT_TRUE(ds.ok()) << ds.status();
  EXPECT_EQ(ds->edges_deleted, wipe.deletes.size());
  EXPECT_EQ(ds->deletes_missing, 0u);

  auto p = PatchGraph(w.graph, wipe);
  ASSERT_TRUE(p.ok());
  auto shrunk = s.Query(AllRequest(0.5));
  ASSERT_TRUE(shrunk.ok());
  EXPECT_EQ(shrunk->supp_q, 0u);
  ExpectSameAnswer(*shrunk, BatchIdentify(p->graph, w.sigma, 0.5, false),
                   "support wiped vs batch");
  auto fresh = RuleServer::Create(p->graph, w.records);
  ASSERT_TRUE(fresh.ok());
  auto f = (*fresh)->Query(AllRequest(0.5));
  ASSERT_TRUE(f.ok());
  ExpectSameAnswer(*shrunk, *f, "support wiped vs fresh server");
}

/// Drop a handful of real edges, then reinsert them in a later batch: the
/// maintained graph must come back byte-identical and every answer with
/// it. The sampled batch may delete the same edge twice — tolerated.
TEST(DeltaStreamEquivalence, DeleteThenReinsertRestoresAnswers) {
  Workload w = MakeWorkload(2);
  EipResult batch = BatchIdentify(w.graph, w.sigma, 0.5, false);
  auto server = RuleServer::Create(w.graph, w.records);
  ASSERT_TRUE(server.ok());
  RuleServer& s = **server;
  ASSERT_TRUE(s.Query(AllRequest(0.5)).ok());  // warm up pre-delete

  std::mt19937_64 rng(99);
  GraphDelta drop;
  drop.sequence = 1;
  for (int i = 0; i < 8; ++i) {
    NodeId v = PickSourceNode(w.graph, rng);
    const auto edges = w.graph.out_edges(v);
    const AdjEntry& e = edges[rng() % edges.size()];
    drop.deletes.push_back({v, e.label, e.other});
  }
  auto ds1 = s.ApplyDelta(drop);
  ASSERT_TRUE(ds1.ok()) << ds1.status();
  auto p = PatchGraph(w.graph, drop);
  ASSERT_TRUE(p.ok());
  auto shrunk = s.Query(AllRequest(0.5));
  ASSERT_TRUE(shrunk.ok());
  ExpectSameAnswer(*shrunk, BatchIdentify(p->graph, w.sigma, 0.5, false),
                   "after drop");

  GraphDelta put;
  put.sequence = 2;
  for (const EdgeDelete& e : drop.deletes) {
    put.inserts.push_back({e.src, e.label, e.dst});
  }
  auto ds2 = s.ApplyDelta(put);
  ASSERT_TRUE(ds2.ok()) << ds2.status();
  EXPECT_EQ(GraphBytes(*s.graph_snapshot()), GraphBytes(w.graph));
  auto back = s.Query(AllRequest(0.5));
  ASSERT_TRUE(back.ok());
  ExpectSameAnswer(*back, batch, "after reinsert");
}

TEST(RuleServerTest, DuplicateDeltaIsNoOp) {
  Workload w = MakeWorkload(3);
  auto server = RuleServer::Create(w.graph, w.records);
  ASSERT_TRUE(server.ok());
  RuleServer& s = **server;
  ASSERT_TRUE(s.Query(AllRequest(0.5)).ok());

  // Re-insert an existing edge: nothing invalidated, cache stays warm.
  NodeId v = 0;
  while (s.graph_snapshot()->out_edges(v).empty()) ++v;
  AdjEntry e = s.graph_snapshot()->out_edges(v)[0];
  auto ds = s.ApplyDelta(InsertDelta({{v, e.label, e.other}}));
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->edges_inserted, 0u);
  EXPECT_EQ(ds->duplicates_ignored, 1u);
  EXPECT_EQ(ds->memberships_invalidated, 0u);

  auto warm = s.Query(AllRequest(0.5));
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->stats.cache_probes, 0u);
}

TEST(RuleServerTest, RuleSubsetRequestsProbeOnlySelected) {
  Workload w = MakeWorkload(0);
  auto server = RuleServer::Create(w.graph, w.records);
  ASSERT_TRUE(server.ok());
  RuleServer& s = **server;

  SessionRequest req;
  req.centers = SampleCenters(s, 17, 4);
  req.rules = {0};
  auto reply = s.Query(req);
  ASSERT_TRUE(reply.ok());
  for (size_t i = 0; i < req.centers.size(); ++i) {
    auto oracle = OracleMatched(w.graph, w.sigma, req.centers[i], false);
    std::vector<uint32_t> want;
    if (std::find(oracle.begin(), oracle.end(), 0u) != oracle.end()) {
      want.push_back(0);
    }
    EXPECT_EQ(reply->matched[i], want);
  }
  // Only rule 0 was probed at each fresh center.
  EXPECT_LE(reply->stats.cache_probes, req.centers.size());

  // The same centers for all rules: rule 0 comes from cache.
  SessionRequest all;
  all.centers = req.centers;
  auto reply2 = s.Query(all);
  ASSERT_TRUE(reply2.ok());
  EXPECT_GT(reply2->stats.cache_hits, 0u);
  for (size_t i = 0; i < all.centers.size(); ++i) {
    EXPECT_EQ(reply2->matched[i],
              OracleMatched(w.graph, w.sigma, all.centers[i], false));
  }
}

/// A rule refresh remaps cached bits by pattern identity: the carried rules
/// (reordered) answer from the cache, only the new rule is probed, the
/// retired rule's bits are dropped, and the answers equal a fresh server's.
TEST(RuleServerTest, RuleRefreshRemapsCachedBitsByPattern) {
  Workload w = MakeWorkload(0);
  ASSERT_GE(w.records.size(), 5u);
  const std::vector<RuleRecord> before(w.records.begin(),
                                       w.records.begin() + 4);
  // Rules 1-3 reversed, rule 0 retired, rule 4 new.
  const std::vector<RuleRecord> after = {w.records[3], w.records[2],
                                         w.records[1], w.records[4]};
  auto server = RuleServer::Create(w.graph, before);
  ASSERT_TRUE(server.ok()) << server.status();
  RuleServer& s = **server;
  ASSERT_TRUE(s.Query(AllRequest(0.5)).ok());  // every center fully cached

  DeltaStats ds;
  ASSERT_TRUE(s.UpdateRules(after, &ds).ok());
  EXPECT_EQ(ds.rules_refreshed, 1u);
  EXPECT_EQ(ds.rules_carried, 3u);

  const size_t centers = s.candidates().size();
  auto reply = s.Query(AllRequest(0.5));
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->stats.cache_probes, centers);
  EXPECT_EQ(reply->stats.cache_hits, 3 * centers);

  auto fresh = RuleServer::Create(w.graph, after);
  ASSERT_TRUE(fresh.ok());
  auto want = (*fresh)->Query(AllRequest(0.5));
  ASSERT_TRUE(want.ok());
  ExpectSameAnswer(*reply, *want, "remapped vs fresh server");
  EXPECT_EQ(reply->matched, want->matched);
}

TEST(RuleServerTest, RequireConsequentSemantics) {
  Workload w = MakeWorkload(2);
  auto server = RuleServer::Create(w.graph, w.records);
  ASSERT_TRUE(server.ok());
  RuleServer& s = **server;
  SessionRequest req;
  req.centers = SampleCenters(s, 3, 6);
  req.require_consequent = true;
  auto reply = s.Query(req);
  ASSERT_TRUE(reply.ok());
  for (size_t i = 0; i < req.centers.size(); ++i) {
    EXPECT_EQ(reply->matched[i],
              OracleMatched(w.graph, w.sigma, req.centers[i], true));
  }
}

}  // namespace
}  // namespace gpar
