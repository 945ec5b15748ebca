#include "serve/sharded_rule_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generator.h"
#include "graph/graph_delta.h"
#include "graph/graph_snapshot.h"
#include "graph/paper_graphs.h"
#include "graph/stats.h"
#include "identify/eip.h"
#include "match/matcher.h"
#include "pattern/pattern_generator.h"
#include "rule/rule_snapshot.h"
#include "serve/rule_server.h"
#include "serve/serve_session.h"

namespace gpar {
namespace {

struct Workload {
  Graph graph;
  std::vector<Gpar> sigma;
  std::vector<RuleRecord> records;
};

/// Same seeded workloads as the single-server ServeEquivalence battery,
/// drawing up to `num_rules` rules.
Workload MakeWorkload(uint64_t seed, size_t num_rules = 5) {
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
  w.sigma = GenerateGparWorkload(w.graph, q, num_rules, gopt);
  EXPECT_GE(w.sigma.size(), 2u);
  for (const Gpar& r : w.sigma) w.records.push_back({r, 0, 0.0});
  return w;
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

SessionRequest AllRequest(double eta, bool require_consequent = false) {
  SessionRequest req;
  req.all_centers = true;
  req.eta = eta;
  req.require_consequent = require_consequent;
  return req;
}

/// The sharded reply must equal the batch EipResult field for field:
/// entities, the global q / qbar supports, and every rule's supports and
/// confidence (assembled at the router from per-shard partial sums).
void ExpectSameAsBatch(const SessionReply& got, const EipResult& want,
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

/// Snapshot bytes as a complete graph fingerprint.
std::string GraphBytes(const Graph& g) {
  std::ostringstream os(std::ios::binary);
  EXPECT_TRUE(WriteGraphSnapshot(g, os).ok());
  return os.str();
}

NodeId PickSourceNode(const Graph& g, std::mt19937_64& rng) {
  NodeId v = static_cast<NodeId>(rng() % g.num_nodes());
  while (g.out_edges(v).empty()) v = (v + 1) % g.num_nodes();
  return v;
}

/// A mutation batch mixing both directions, mirroring the single-server
/// DeltaStreamEquivalence battery: `k` random inserts, `k` deletes of real
/// edges, one (almost surely) missing delete, plus a delete-then-reinsert
/// pair on even seeds.
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

std::vector<NodeId> SampleCenters(const ServeSession& session, uint64_t seed,
                                  size_t k) {
  std::mt19937_64 rng(seed);
  std::vector<NodeId> centers;
  const auto& cands = session.candidates();
  for (size_t i = 0; i < k && !cands.empty(); ++i) {
    centers.push_back(cands[rng() % cands.size()]);
  }
  centers.push_back(
      static_cast<NodeId>(rng() % session.graph_snapshot()->num_nodes()));
  return centers;
}

/// The acceptance battery: a k-shard deployment answers — cold, warm, and
/// after a published delta — identical to a single `RuleServer` and to a
/// fresh batch `IdentifyEntities` run, through the one `ServeSession`
/// interface, across seeds and shard counts.
TEST(ShardedServeEquivalence, ColdWarmAndDeltaMatchSingleAndBatch) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Workload w = MakeWorkload(seed);

    EipResult batch_lo = BatchIdentify(w.graph, w.sigma, 0.5, false);
    EipResult batch_hi = BatchIdentify(w.graph, w.sigma, 1.2, false);
    EipResult batch_pr = BatchIdentify(w.graph, w.sigma, 0.5, true);

    GraphDelta delta{.sequence = 0,
                     .inserts = MakeDelta(w.graph, seed * 977 + 5, 6),
                     .deletes = {},
                     .label_defs = {}};
    auto patchref = PatchGraph(w.graph, delta);
    ASSERT_TRUE(patchref.ok());
    EipResult batch_patched =
        BatchIdentify(patchref->graph, w.sigma, 0.5, false);

    // The single-server reference, driven through the same session API.
    auto singleref = RuleServer::Create(w.graph, w.records);
    ASSERT_TRUE(singleref.ok()) << singleref.status();
    ServeSession& single = **singleref;
    SessionRequest point;
    point.centers = SampleCenters(single, seed + 41, 6);
    auto single_point = single.Query(point);
    ASSERT_TRUE(single_point.ok()) << single_point.status();
    auto singlepatch = RuleServer::Create(patchref->graph, w.records);
    ASSERT_TRUE(singlepatch.ok());
    auto single_point_patched = (*singlepatch)->Query(point);
    ASSERT_TRUE(single_point_patched.ok());

    for (uint32_t k : {1u, 2u, 4u}) {
      SCOPED_TRACE("k=" + std::to_string(k));
      ShardedRuleServerOptions sopt;
      sopt.num_shards = k;
      sopt.shard_options.num_workers = 2;
      auto server = ShardedRuleServer::Create(w.graph, w.records, sopt);
      ASSERT_TRUE(server.ok()) << server.status();
      ShardedRuleServer& s = **server;
      ASSERT_EQ(s.num_shards(), k);
      EXPECT_EQ(s.candidates(), single.candidates());

      // Cold.
      auto cold = s.Query(AllRequest(0.5));
      ASSERT_TRUE(cold.ok()) << cold.status();
      ExpectSameAsBatch(*cold, batch_lo, "cold");
      EXPECT_GT(cold->stats.cache_probes, 0u);

      // Warm: different eta and P_R semantics, all from the shard caches.
      auto warm = s.Query(AllRequest(1.2));
      ASSERT_TRUE(warm.ok());
      ExpectSameAsBatch(*warm, batch_hi, "warm");
      EXPECT_EQ(warm->stats.cache_probes, 0u);
      EXPECT_GT(warm->stats.cache_hits, 0u);
      auto warm_pr = s.Query(AllRequest(0.5, true));
      ASSERT_TRUE(warm_pr.ok());
      ExpectSameAsBatch(*warm_pr, batch_pr, "warm require_consequent");

      // Point queries routed by ownership == the single server's answers.
      auto reply = s.Query(point);
      ASSERT_TRUE(reply.ok()) << reply.status();
      EXPECT_EQ(reply->matched, single_point->matched);
      EXPECT_EQ(reply->entities, single_point->entities);

      // Published delta == rebuild: the parent is patched once and every
      // shard's cache slice adopts the new generation.
      auto ds = s.ApplyDelta(delta);
      ASSERT_TRUE(ds.ok()) << ds.status();
      EXPECT_EQ(ds->edges_inserted, patchref->edges_inserted);
      EXPECT_EQ(s.delta_sequence(), 1u);
      auto after = s.Query(AllRequest(0.5));
      ASSERT_TRUE(after.ok());
      ExpectSameAsBatch(*after, batch_patched, "after delta");

      auto reply2 = s.Query(point);
      ASSERT_TRUE(reply2.ok());
      EXPECT_EQ(reply2->matched, single_point_patched->matched);
      EXPECT_EQ(reply2->entities, single_point_patched->entities);
    }
  }
}

/// The sharded insert+delete battery: a randomized interleaved mutation
/// stream shipped through the router must keep every shard deployment
/// equal to a delta-maintained single server, to fresh batch mining, and
/// to a from-scratch server on the final edge list — even when deletions
/// shrink neighborhoods across shard seams.
TEST(ShardedDeltaStreamEquivalence, InterleavedStreamMatchesSingleAndBatch) {
  constexpr int kBatches = 4;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Workload w = MakeWorkload(seed);

    // Reference trajectory, patched outside any server.
    std::vector<GraphDelta> stream;
    std::vector<Graph> after;
    after.reserve(kBatches);
    for (int b = 0; b < kBatches; ++b) {
      const Graph& cur = (b == 0) ? w.graph : after.back();
      GraphDelta d = MakeMutationDelta(cur, seed * 739 + b, 5);
      d.sequence = static_cast<uint64_t>(b);
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

    // A delta-maintained single server as the point-query reference.
    auto singleref = RuleServer::Create(w.graph, w.records);
    ASSERT_TRUE(singleref.ok()) << singleref.status();
    ServeSession& single = **singleref;
    SessionRequest point;
    point.centers = SampleCenters(single, seed + 67, 6);
    for (const GraphDelta& d : stream) {
      ASSERT_TRUE(single.ApplyDelta(d).ok());
    }
    auto single_final = single.Query(point);
    ASSERT_TRUE(single_final.ok());

    for (uint32_t k : {1u, 2u, 4u}) {
      SCOPED_TRACE("k=" + std::to_string(k));
      ShardedRuleServerOptions sopt;
      sopt.num_shards = k;
      sopt.shard_options.num_workers = 2;
      auto server = ShardedRuleServer::Create(w.graph, w.records, sopt);
      ASSERT_TRUE(server.ok()) << server.status();
      ShardedRuleServer& s = **server;

      // Cold, then warm from the shard caches.
      auto cold = s.Query(AllRequest(0.5));
      ASSERT_TRUE(cold.ok()) << cold.status();
      ExpectSameAsBatch(*cold, batch_cold, "cold");
      auto warm = s.Query(AllRequest(0.5));
      ASSERT_TRUE(warm.ok());
      ExpectSameAsBatch(*warm, batch_cold, "warm");
      EXPECT_EQ(warm->stats.cache_probes, 0u);

      // Mid-stream checkpoint.
      for (int b = 0; b < kBatches / 2; ++b) {
        auto ds = s.ApplyDelta(stream[b]);
        ASSERT_TRUE(ds.ok()) << ds.status();
      }
      auto mid = s.Query(AllRequest(0.5));
      ASSERT_TRUE(mid.ok());
      ExpectSameAsBatch(*mid, batch_mid, "mid-stream");

      // Final checkpoint: batch, fresh sharded server, and the maintained
      // single server all agree; the router's parent CSR is byte-identical
      // to the from-scratch rebuild.
      for (int b = kBatches / 2; b < kBatches; ++b) {
        auto ds = s.ApplyDelta(stream[b]);
        ASSERT_TRUE(ds.ok()) << ds.status();
      }
      EXPECT_EQ(GraphBytes(*s.graph_snapshot()), GraphBytes(final_graph));
      auto fin = s.Query(AllRequest(0.5));
      ASSERT_TRUE(fin.ok());
      ExpectSameAsBatch(*fin, batch_final, "final vs batch");

      auto fresh = ShardedRuleServer::Create(final_graph, w.records, sopt);
      ASSERT_TRUE(fresh.ok());
      auto fresh_ans = (*fresh)->Query(AllRequest(0.5));
      ASSERT_TRUE(fresh_ans.ok());
      EXPECT_EQ(fin->entities, fresh_ans->entities);
      EXPECT_EQ(fin->supp_q, fresh_ans->supp_q);
      EXPECT_EQ(fin->supp_qbar, fresh_ans->supp_qbar);

      auto reply = s.Query(point);
      ASSERT_TRUE(reply.ok()) << reply.status();
      EXPECT_EQ(reply->matched, single_final->matched);
      EXPECT_EQ(reply->entities, single_final->entities);
    }
  }
}

TEST(ShardedServeEquivalence, OwnershipPartitionsCandidates) {
  Workload w = MakeWorkload(1);
  ShardedRuleServerOptions sopt;
  sopt.num_shards = 3;
  auto server = ShardedRuleServer::Create(w.graph, w.records, sopt);
  ASSERT_TRUE(server.ok()) << server.status();
  ShardedRuleServer& s = **server;

  // Every candidate is owned by exactly one shard, and the per-shard owned
  // sets reassemble the global candidate list.
  size_t total_owned = 0;
  for (uint32_t i = 0; i < s.num_shards(); ++i) {
    const CacheSlice& sh = s.shard(i);
    total_owned += sh.candidates().size();
    for (NodeId c : sh.candidates()) EXPECT_EQ(s.OwnerOf(c), i);
  }
  EXPECT_EQ(total_owned, s.candidates().size());

  // Non-candidates have no owner.
  const Graph& g = *s.graph_snapshot();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!std::binary_search(s.candidates().begin(), s.candidates().end(), v)) {
      EXPECT_EQ(s.OwnerOf(v), s.num_shards());
      break;
    }
  }
}

TEST(ShardedServeEquivalence, SnapshotLoadRoundTrip) {
  Workload w = MakeWorkload(4);
  std::string dir = ::testing::TempDir();
  std::string gpath = dir + "/sharded_serve_test_graph.snap";
  std::string rpath = dir + "/sharded_serve_test_rules.snap";
  ASSERT_TRUE(WriteGraphSnapshotFile(w.graph, gpath).ok());
  ASSERT_TRUE(
      WriteRuleSetSnapshotFile(w.records, w.graph.labels(), rpath).ok());

  ShardedRuleServerOptions sopt;
  sopt.num_shards = 2;
  auto loaded = ShardedRuleServer::Load(gpath, rpath, sopt);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto in_memory = ShardedRuleServer::Create(w.graph, w.records, sopt);
  ASSERT_TRUE(in_memory.ok());

  auto a = (*loaded)->Query(AllRequest(0.7));
  auto b = (*in_memory)->Query(AllRequest(0.7));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->entities, b->entities);
  EXPECT_EQ(a->supp_q, b->supp_q);
  EXPECT_EQ((*loaded)->rules().size(), w.records.size());
}

/// One input-validation battery for both `ServeSession` implementations:
/// the same malformed requests and delta go through `ServeSession&`.
void ExpectRejectsMalformedInput(ServeSession& s, size_t num_rules) {
  const NodeId n = s.graph_snapshot()->num_nodes();
  auto expect_invalid = [&s](const SessionRequest& req, const char* what) {
    auto r = s.Query(req);
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << what;
  };

  SessionRequest bad_center;
  bad_center.centers = {n + 7};
  expect_invalid(bad_center, "center out of range");

  SessionRequest bad_rule;
  bad_rule.centers = {0};
  bad_rule.rules = {static_cast<uint32_t>(num_rules)};
  expect_invalid(bad_rule, "rule index out of range");

  expect_invalid(AllRequest(0), "eta = 0");
  expect_invalid(AllRequest(-1), "eta < 0");

  GraphDelta bad_delta;
  bad_delta.inserts.push_back({n, s.graph_snapshot()->node_label(0), 0});
  EXPECT_FALSE(s.ApplyDelta(bad_delta).ok()) << "delta node out of range";
}

TEST(RuleServerTest, InputValidation) {
  Workload w = MakeWorkload(1);

  // Factory: an empty Σ and mixed predicates.
  EXPECT_FALSE(RuleServer::Create(w.graph, {}).ok());
  PaperG1 g1 = MakePaperG1();
  PaperG2 g2 = MakePaperG2();
  std::vector<RuleRecord> mixed{{g1.r1, 0, 0}, {g2.r4, 0, 0}};
  EXPECT_FALSE(RuleServer::Create(g1.graph, mixed).ok());

  auto server = RuleServer::Create(w.graph, w.records);
  ASSERT_TRUE(server.ok()) << server.status();
  ExpectRejectsMalformedInput(**server, w.records.size());
}

TEST(ShardedServeEquivalence, InputValidation) {
  Workload w = MakeWorkload(1);

  // Factory: an empty Σ, mixed predicates and zero shards.
  EXPECT_FALSE(ShardedRuleServer::Create(w.graph, {}).ok());
  PaperG1 g1 = MakePaperG1();
  PaperG2 g2 = MakePaperG2();
  std::vector<RuleRecord> mixed{{g1.r1, 0, 0}, {g2.r4, 0, 0}};
  EXPECT_FALSE(ShardedRuleServer::Create(g1.graph, mixed).ok());
  ShardedRuleServerOptions zero;
  zero.num_shards = 0;
  EXPECT_FALSE(ShardedRuleServer::Create(w.graph, w.records, zero).ok());

  auto server = ShardedRuleServer::Create(w.graph, w.records);
  ASSERT_TRUE(server.ok()) << server.status();
  ExpectRejectsMalformedInput(**server, w.records.size());
}

/// Concurrency battery: n threads fire a mixed point / all-centers stream
/// at one session; every answer must equal the single-threaded reference.
/// Runs over both implementations of the session interface.
void StressQueries(ServeSession& session, uint32_t num_threads,
                   uint32_t rounds) {
  SessionRequest all = AllRequest(0.5);
  auto want_all = session.Query(all);
  ASSERT_TRUE(want_all.ok()) << want_all.status();

  std::vector<SessionRequest> points(num_threads);
  std::vector<SessionReply> want_point(num_threads);
  for (uint32_t t = 0; t < num_threads; ++t) {
    points[t].centers = SampleCenters(session, 100 + t, 5);
    auto r = session.Query(points[t]);
    ASSERT_TRUE(r.ok());
    want_point[t] = std::move(r).value();
  }

  std::atomic<uint32_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (uint32_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (uint32_t i = 0; i < rounds; ++i) {
        if ((i + t) % 3 == 0) {
          auto r = session.Query(all);
          if (!r.ok() || r->entities != want_all->entities ||
              r->supp_q != want_all->supp_q) {
            ++failures;
          }
        } else {
          auto r = session.Query(points[t]);
          if (!r.ok() || r->matched != want_point[t].matched) ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
}

// `rules()` hands out a copy: a set held across a rule refresh stays
// readable although the refresh frees the set it replaces (ASan checks the
// old reference-returning contract's use-after-free here).
TEST(ServeSessionTest, HeldRulesOutliveARuleRefresh) {
  Workload w = MakeWorkload(1);
  ASSERT_GE(w.records.size(), 2u);
  const std::vector<RuleRecord> fewer(w.records.begin(), w.records.end() - 1);
  RuleServerOptions opt;
  opt.num_workers = 2;
  ShardedRuleServerOptions sopt;
  sopt.num_shards = 2;
  sopt.shard_options = opt;
  auto single = RuleServer::Create(w.graph, w.records, opt);
  ASSERT_TRUE(single.ok()) << single.status();
  auto sharded = ShardedRuleServer::Create(w.graph, w.records, sopt);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  for (ServeSession* s :
       {static_cast<ServeSession*>(single->get()),
        static_cast<ServeSession*>(sharded->get())}) {
    const auto& held = s->rules();
    ASSERT_TRUE(s->UpdateRules(fewer).ok());
    EXPECT_EQ(held, w.records);
    EXPECT_EQ(s->rules(), fewer);
    auto reply = s->Query(AllRequest(0.5));
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->rule_evals.size(), fewer.size());
  }
}

size_t CachedCenters(const ShardedRuleServer& s) {
  size_t n = 0;
  for (uint32_t i = 0; i < s.num_shards(); ++i) {
    n += s.shard(i).cached_centers();
  }
  return n;
}

/// `req`, whose centers are no candidates, answers empty rows without
/// probing, evaluating or caching anything (`cached` counts the cache
/// entries), cold and once every candidate is warm.
void ExpectFreeLookups(ServeSession& s, const SessionRequest& req,
                       const std::function<size_t()>& cached) {
  const std::vector<std::vector<uint32_t>> empty_rows(req.centers.size());
  for (const char* phase : {"cold", "warm"}) {
    SCOPED_TRACE(phase);
    const size_t before = cached();
    auto reply = s.Query(req);
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->matched, empty_rows);
    EXPECT_TRUE(reply->entities.empty());
    EXPECT_EQ(reply->stats.cache_probes, 0u);
    EXPECT_EQ(reply->stats.centers_evaluated, 0u);
    EXPECT_EQ(cached(), before);
    ASSERT_TRUE(s.Query(AllRequest(0.5)).ok());  // warms every candidate
  }
}

/// A point lookup of centers without x's label can never match, so it
/// costs nothing — on a single server and on a router alike.
TEST(ServeSessionTest, NonCandidateLookupsCostNothing) {
  Workload w = MakeWorkload(1);
  RuleServerOptions opt;
  opt.num_workers = 2;
  ShardedRuleServerOptions sopt;
  sopt.num_shards = 2;
  sopt.shard_options = opt;
  auto single = RuleServer::Create(w.graph, w.records, opt);
  ASSERT_TRUE(single.ok()) << single.status();
  auto sharded = ShardedRuleServer::Create(w.graph, w.records, sopt);
  ASSERT_TRUE(sharded.ok()) << sharded.status();

  SessionRequest req;
  const std::vector<NodeId>& cands = (*single)->candidates();
  for (NodeId v = 0; v < w.graph.num_nodes() && req.centers.size() < 6; ++v) {
    if (!std::binary_search(cands.begin(), cands.end(), v)) {
      req.centers.push_back(v);
    }
  }
  ASSERT_FALSE(req.centers.empty());
  req.centers.push_back(req.centers.front());  // a repeat, too
  ExpectFreeLookups(**single, req, [&] { return (*single)->cached_centers(); });
  ExpectFreeLookups(**sharded, req, [&] { return CachedCenters(**sharded); });
}

/// The session's cached-center count sums its slices, so a router reports
/// what its shards hold, not zero.
TEST(ServeSessionTest, RouterCachedCentersSumTheShards) {
  Workload w = MakeWorkload(1);
  ShardedRuleServerOptions sopt;
  sopt.num_shards = 3;
  sopt.shard_options.num_workers = 2;
  auto sharded = ShardedRuleServer::Create(w.graph, w.records, sopt);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  ASSERT_TRUE((*sharded)->Query(AllRequest(0.5)).ok());
  EXPECT_EQ((*sharded)->cached_centers(), CachedCenters(**sharded));
  EXPECT_GT((*sharded)->cached_centers(), 0u);
}

/// Direct per-(rule, center) oracle for point queries: fresh whole-graph
/// matching, no caches.
std::vector<uint32_t> OracleMatched(const Graph& g,
                                    const std::vector<Gpar>& sigma,
                                    NodeId center) {
  VF2Matcher m(g);
  const std::vector<char> other_ok = OtherComponentsOk(g, sigma);
  std::vector<uint32_t> out;
  for (uint32_t ri = 0; ri < sigma.size(); ++ri) {
    if (m.ExistsAt(sigma[ri].x_component(), center) && other_ok[ri] != 0) {
      out.push_back(ri);
    }
  }
  return out;
}

/// `s` answers like batch identification on `g` for `sigma` (all centers)
/// and like fresh matching at each of `centers` (point lookups); `stats`
/// receives the all-centers request's.
void ExpectServesBatch(ServeSession& s, const Graph& g,
                       const std::vector<Gpar>& sigma,
                       const std::vector<NodeId>& centers,
                       const std::string& what, ServeStats* stats) {
  auto all = s.Query(AllRequest(0.5));
  ASSERT_TRUE(all.ok()) << all.status();
  ExpectSameAsBatch(*all, BatchIdentify(g, sigma, 0.5, false), what);
  *stats = all->stats;
  SessionRequest point;
  point.centers = centers;
  auto reply = s.Query(point);
  ASSERT_TRUE(reply.ok()) << reply.status();
  for (size_t i = 0; i < centers.size(); ++i) {
    EXPECT_EQ(reply->matched[i], OracleMatched(g, sigma, centers[i]))
        << what << " center " << centers[i];
  }
}

/// Served sets wider than one bitset word: every cached row and its remap
/// span two words. Cold, warm, after a delta, and across rule refreshes
/// that shrink the row to one word and grow it back.
TEST(ServeSessionTest, WideRuleSetsMatchBatch) {
  constexpr size_t kWide = 70;
  constexpr size_t kNarrow = 5;
  for (uint64_t seed : {1u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Workload w = MakeWorkload(seed, kWide);
    ASSERT_GE(w.records.size(), kNarrow);
    // A served set may repeat a rule: cycle a short draw up to the width.
    for (size_t i = 0; w.records.size() < kWide; ++i) {
      w.records.push_back(w.records[i]);
      w.sigma.push_back(w.sigma[i]);
    }
    const std::vector<RuleRecord> narrow(w.records.begin(),
                                         w.records.begin() + kNarrow);
    const std::vector<Gpar> narrow_sigma(w.sigma.begin(),
                                         w.sigma.begin() + kNarrow);
    const GraphDelta delta = MakeMutationDelta(w.graph, seed + 7, 6);
    auto patched = PatchGraph(w.graph, delta);
    ASSERT_TRUE(patched.ok()) << patched.status();

    RuleServerOptions opt;
    opt.num_workers = 2;
    ShardedRuleServerOptions sopt;
    sopt.num_shards = 2;
    sopt.shard_options = opt;
    auto single = RuleServer::Create(w.graph, w.records, opt);
    ASSERT_TRUE(single.ok()) << single.status();
    auto sharded = ShardedRuleServer::Create(w.graph, w.records, sopt);
    ASSERT_TRUE(sharded.ok()) << sharded.status();
    for (ServeSession* s :
         {static_cast<ServeSession*>(single->get()),
          static_cast<ServeSession*>(sharded->get())}) {
      const std::vector<NodeId> centers = SampleCenters(*s, seed + 5, 8);
      ServeStats st;
      ExpectServesBatch(*s, w.graph, w.sigma, centers, "cold", &st);
      EXPECT_GT(st.cache_probes, 0u);
      ExpectServesBatch(*s, w.graph, w.sigma, centers, "warm", &st);
      EXPECT_EQ(st.cache_probes, 0u);

      ASSERT_TRUE(s->ApplyDelta(delta).ok());
      ExpectServesBatch(*s, patched->graph, w.sigma, centers, "after delta",
                        &st);

      DeltaStats ds;
      ASSERT_TRUE(s->UpdateRules(narrow, &ds).ok());
      EXPECT_EQ(ds.rules_refreshed, 1u);
      EXPECT_GT(ds.rules_carried, 0u);
      ExpectServesBatch(*s, patched->graph, narrow_sigma, centers, "narrowed",
                        &st);
      EXPECT_GT(st.cache_hits, 0u);

      DeltaStats ds2;
      ASSERT_TRUE(s->UpdateRules(w.records, &ds2).ok());
      EXPECT_EQ(ds2.rules_refreshed, 1u);
      EXPECT_GT(ds2.rules_carried, 0u);
      ExpectServesBatch(*s, patched->graph, w.sigma, centers, "widened", &st);
      EXPECT_GT(st.cache_hits, 0u);
    }
  }
}

TEST(ShardedServeEquivalence, ConcurrentQueriesSingleServer) {
  Workload w = MakeWorkload(1);
  RuleServerOptions opt;
  opt.num_workers = 2;
  auto server = RuleServer::Create(w.graph, w.records, opt);
  ASSERT_TRUE(server.ok()) << server.status();
  StressQueries(**server, 8, 12);
}

TEST(ShardedServeEquivalence, ConcurrentQueriesSharded) {
  Workload w = MakeWorkload(2);
  for (uint32_t k : {1u, 2u, 4u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    ShardedRuleServerOptions sopt;
    sopt.num_shards = k;
    sopt.shard_options.num_workers = 2;
    auto server = ShardedRuleServer::Create(w.graph, w.records, sopt);
    ASSERT_TRUE(server.ok()) << server.status();
    StressQueries(**server, 6, 8);
  }
}

/// Deltas never block or corrupt in-flight queries: readers hammer the
/// session while a writer applies a stream of mixed insert+delete batches.
/// During the race replies just have to be well-formed; after the writer
/// finishes, the session must answer exactly like a fresh server on the
/// final graph.
void StressQueriesUnderDeltas(ServeSession& session, const Workload& w,
                              uint32_t num_readers, uint32_t num_batches) {
  std::vector<SessionRequest> points(num_readers);
  for (uint32_t t = 0; t < num_readers; ++t) {
    points[t].centers = SampleCenters(session, 500 + t, 4);
  }
  SessionRequest all = AllRequest(0.5);

  std::atomic<bool> stop{false};
  std::atomic<uint32_t> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(num_readers);
  for (uint32_t t = 0; t < num_readers; ++t) {
    readers.emplace_back([&, t] {
      uint32_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = session.Query((i + t) % 4 == 0 ? all : points[t]);
        if (!r.ok()) ++failures;
        ++i;
      }
    });
  }

  Graph current = w.graph;
  for (uint32_t b = 0; b < num_batches; ++b) {
    GraphDelta delta = MakeMutationDelta(current, 900 + b * 13, 3);
    delta.sequence = b;
    auto want = PatchGraph(current, delta);
    ASSERT_TRUE(want.ok());
    current = std::move(want)->graph;
    auto ds = session.ApplyDelta(delta);
    if (!ds.ok()) ++failures;
  }
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0u);

  auto fresh = RuleServer::Create(current, w.records);
  ASSERT_TRUE(fresh.ok());
  auto want_final = (*fresh)->Query(all);
  auto got_final = session.Query(all);
  ASSERT_TRUE(want_final.ok());
  ASSERT_TRUE(got_final.ok());
  EXPECT_EQ(got_final->entities, want_final->entities);
  EXPECT_EQ(got_final->supp_q, want_final->supp_q);
  EXPECT_EQ(got_final->supp_qbar, want_final->supp_qbar);
}

TEST(ShardedServeEquivalence, ConcurrentDeltasSingleServer) {
  Workload w = MakeWorkload(4);
  RuleServerOptions opt;
  opt.num_workers = 2;
  auto server = RuleServer::Create(w.graph, w.records, opt);
  ASSERT_TRUE(server.ok()) << server.status();
  StressQueriesUnderDeltas(**server, w, 4, 6);
}

TEST(ShardedServeEquivalence, ConcurrentDeltasSharded) {
  Workload w = MakeWorkload(5);
  ShardedRuleServerOptions sopt;
  sopt.num_shards = 2;
  sopt.shard_options.num_workers = 2;
  auto server = ShardedRuleServer::Create(w.graph, w.records, sopt);
  ASSERT_TRUE(server.ok()) << server.status();
  StressQueriesUnderDeltas(**server, w, 4, 6);
}

}  // namespace
}  // namespace gpar
