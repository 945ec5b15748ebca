#include "maintain/rule_maintainer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "graph/generator.h"
#include "graph/graph_builder.h"
#include "graph/graph_delta.h"
#include "graph/neighborhood.h"
#include "graph/stats.h"
#include "maintain/maintain_command.h"
#include "mine/dmine.h"
#include "rule/rule_snapshot.h"
#include "serve/rule_server.h"
#include "serve/sharded_rule_server.h"

namespace gpar {
namespace {

MaintainOptions SmallMaintain() {
  MaintainOptions opt;
  opt.mine.num_workers = 2;
  opt.mine.k = 3;
  opt.mine.d = 2;
  opt.mine.sigma = 2;
  opt.mine.lambda = 0.5;
  opt.mine.max_pattern_edges = 3;
  opt.mine.seed_edge_limit = 8;
  opt.mine.max_candidates_per_round = 200;
  return opt;
}

Predicate PickQ(const Graph& g) {
  auto freq = FrequentEdgePatterns(g);
  EXPECT_FALSE(freq.empty());
  return {freq[0].src_label, freq[0].edge_label, freq[0].dst_label};
}

std::vector<RuleRecord> DmineRecords(const Graph& g, const Predicate& q,
                                     const DmineOptions& opt) {
  auto result = Dmine(g, q, opt);
  EXPECT_TRUE(result.ok()) << result.status();
  std::vector<RuleRecord> records;
  if (result.ok()) {
    for (const auto& r : result->topk) {
      records.push_back({r->rule, r->supp, r->conf});
    }
  }
  return records;
}

/// The maintained invariant, asserted byte-for-byte: every record the
/// maintainer serves — pattern, supp, conf — equals what a from-scratch
/// Dmine on the same graph returns, in the same order.
void ExpectMatchesDmine(const RuleMaintainer& m, const std::string& what) {
  std::vector<RuleRecord> want =
      DmineRecords(*m.graph(), m.predicate(), m.options().mine);
  std::vector<RuleRecord> got = m.TopKRecords();
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].supp, want[i].supp) << what << " rule " << i;
    EXPECT_EQ(got[i].conf, want[i].conf) << what << " rule " << i;
    EXPECT_EQ(got[i].rule.pr().num_edges(), want[i].rule.pr().num_edges())
        << what << " rule " << i;
  }
  EXPECT_EQ(got, want) << what;
}

/// One churn batch: delete `k` existing edges (biased toward the q label —
/// that is what moves supports across sigma) and insert `k` edges between
/// random endpoints reusing the graph's own labels.
GraphDelta MakeChurn(const Graph& g, LabelId q_label, uint64_t seed,
                     size_t k) {
  std::mt19937_64 rng(seed);
  GraphDelta d;
  size_t q_deleted = 0;
  for (size_t i = 0; i < k; ++i) {
    NodeId v = static_cast<NodeId>(rng() % g.num_nodes());
    while (g.out_edges(v).empty()) v = (v + 1) % g.num_nodes();
    const auto edges = g.out_edges(v);
    // Prefer a q-labeled edge at this source when one exists: deleting the
    // consequent edge is what retires matches (downward crossings).
    const AdjEntry* pick = nullptr;
    if (q_deleted < k / 2) {
      for (const AdjEntry& e : edges) {
        if (e.label == q_label) {
          pick = &e;
          ++q_deleted;
          break;
        }
      }
    }
    if (pick == nullptr) pick = &edges[rng() % edges.size()];
    d.deletes.push_back({v, pick->label, pick->other});
  }
  std::vector<LabelId> labels;
  for (NodeId v = 0; v < g.num_nodes() && labels.size() < 6; ++v) {
    for (const AdjEntry& e : g.out_edges(v)) {
      if (std::find(labels.begin(), labels.end(), e.label) == labels.end()) {
        labels.push_back(e.label);
      }
    }
  }
  for (size_t i = 0; i < k; ++i) {
    NodeId src = static_cast<NodeId>(rng() % g.num_nodes());
    NodeId dst = static_cast<NodeId>(rng() % g.num_nodes());
    d.inserts.push_back(
        {src, i % 2 == 0 ? q_label : labels[rng() % labels.size()], dst});
  }
  return d;
}

/// A churn batch the label test cannot wave through: deletes `deletes`
/// random existing edges and inserts `inserts` copies of random existing
/// edges' label triples between other endpoints with the same node labels,
/// so every insert carries a triple the graph, and so the seed alphabet,
/// already has.
GraphDelta MakeLabelMatchedChurn(const Graph& g, uint64_t seed, size_t inserts,
                                 size_t deletes) {
  std::mt19937_64 rng(seed);
  auto random_edge = [&] {
    NodeId v = static_cast<NodeId>(rng() % g.num_nodes());
    while (g.out_edges(v).empty()) v = (v + 1) % g.num_nodes();
    const auto edges = g.out_edges(v);
    const AdjEntry& e = edges[rng() % edges.size()];
    return EdgeDelete{v, e.label, e.other};
  };
  GraphDelta d;
  for (size_t i = 0; i < deletes; ++i) d.deletes.push_back(random_edge());
  for (size_t i = 0; i < inserts; ++i) {
    const EdgeDelete e = random_edge();
    const auto srcs = g.nodes_with_label(g.node_label(e.src));
    const auto dsts = g.nodes_with_label(g.node_label(e.dst));
    const NodeId src = srcs[rng() % srcs.size()];
    const NodeId dst = dsts[rng() % dsts.size()];
    d.inserts.push_back({src, e.label, dst});
  }
  return d;
}

TEST(MaintainTest, SeedMatchesDmine) {
  auto g = std::make_shared<const Graph>(MakeSynthetic(300, 900, 10, 11));
  Predicate q = PickQ(*g);
  auto m = RuleMaintainer::Seed(g, q, SmallMaintain());
  ASSERT_TRUE(m.ok()) << m.status();
  ExpectMatchesDmine(**m, "seed pass");
  EXPECT_GT((*m)->TopKRecords().size(), 0u);
  EXPECT_GT((*m)->objective(), 0.0);
  EXPECT_EQ((*m)->last_sequence(), 0u);
}

// The seed is one mining run, not two: its probes are exactly one Dmine's
// worker probes plus that run's whole-graph checks of antecedent
// components without x.
TEST(MaintainTest, SeedIsOneDmineRun) {
  auto g = std::make_shared<const Graph>(MakeSynthetic(300, 900, 10, 11));
  Predicate q = PickQ(*g);
  const MaintainOptions opt = SmallMaintain();
  auto m = RuleMaintainer::Seed(g, q, opt);
  ASSERT_TRUE(m.ok()) << m.status();
  auto d = Dmine(*g, q, opt.mine);
  ASSERT_TRUE(d.ok()) << d.status();
  const MaintainStats& st = (*m)->lifetime_stats();
  EXPECT_GT(d->stats.global_exists_calls, 0u);
  EXPECT_EQ(st.exists_calls,
            d->stats.exists_calls + d->stats.global_exists_calls);
  EXPECT_EQ(st.centers_reprobed, d->stats.exists_calls);
  EXPECT_EQ(st.candidates_evaluated, d->stats.candidates_verified);
  EXPECT_EQ(st.passes, 1u);
}

// The seed's worker count is live: it is Dmine's, and Dmine refuses zero.
TEST(MaintainTest, SeedRejectsZeroWorkers) {
  auto g = std::make_shared<const Graph>(MakeSynthetic(200, 600, 10, 3));
  MaintainOptions opt = SmallMaintain();
  opt.mine.num_workers = 0;
  auto m = RuleMaintainer::Seed(g, PickQ(*g), opt);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(m.status().message().find("num_workers"), std::string::npos)
      << m.status();
}

TEST(MaintainTest, RejectsLambdaOutsideTheUnitInterval) {
  auto g = std::make_shared<const Graph>(MakeSynthetic(200, 600, 10, 3));
  Predicate q = PickQ(*g);
  for (double lambda : {1.5, -0.1, std::numeric_limits<double>::quiet_NaN()}) {
    MaintainOptions opt = SmallMaintain();
    opt.mine.lambda = lambda;
    auto m = RuleMaintainer::Seed(g, q, opt);
    ASSERT_FALSE(m.ok()) << "lambda " << lambda;
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  }
  for (double lambda : {0.0, 1.0}) {
    MaintainOptions opt = SmallMaintain();
    opt.mine.lambda = lambda;
    auto m = RuleMaintainer::Seed(g, q, opt);
    ASSERT_TRUE(m.ok()) << m.status();
    ExpectMatchesDmine(**m, "lambda " + std::to_string(lambda));
  }
}

// Setup flag bit 3 belonged to the retired parent-prune switch, which
// never changed a result: a setup written with it cleared loads, and the
// restored maintainer writes it back at its old default (1).
TEST(MaintainTest, SetupWithRetiredParentPruneBitClearedLoads) {
  auto g = std::make_shared<const Graph>(MakeSynthetic(200, 600, 10, 3));
  Predicate q = PickQ(*g);
  auto m = RuleMaintainer::Seed(g, q, SmallMaintain());
  ASSERT_TRUE(m.ok()) << m.status();
  RuleSetEvidence ev = (*m)->evidence();
  ASSERT_NE(ev.setup.bool_flags & (1u << 3), 0u);
  ev.setup.bool_flags &= ~(1u << 3);

  auto o = MaintainOptionsFromSetup(ev.setup, SmallMaintain());
  ASSERT_TRUE(o.ok()) << o.status();
  EXPECT_EQ(PackMiningFlags(o->mine), (*m)->evidence().setup.bool_flags);
  auto restored = RuleMaintainer::FromEvidence(g, ev, SmallMaintain());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored)->evidence().setup, (*m)->evidence().setup);
  EXPECT_EQ((*restored)->TopKRecords(), (*m)->TopKRecords());
}

// Setup flag bit 7 belonged to the retired prune-aware Usupp heuristic,
// which could change a result: evidence mined with it is refused, by the
// options codec and by FromEvidence alike.
TEST(MaintainTest, SetupWithPruneAwareUsuppBitIsRefused) {
  auto g = std::make_shared<const Graph>(MakeSynthetic(200, 600, 10, 3));
  Predicate q = PickQ(*g);
  auto m = RuleMaintainer::Seed(g, q, SmallMaintain());
  ASSERT_TRUE(m.ok()) << m.status();
  RuleSetEvidence ev = (*m)->evidence();
  ev.setup.bool_flags |= 1u << 7;

  auto o = MaintainOptionsFromSetup(ev.setup, SmallMaintain());
  ASSERT_FALSE(o.ok());
  EXPECT_EQ(o.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(o.status().message().find("prune-aware Usupp"), std::string::npos)
      << o.status();
  auto restored = RuleMaintainer::FromEvidence(g, ev, SmallMaintain());
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

// The headline battery: six seeded workloads, each driven through an
// interleaved insert+delete stream with a mid-stream checkpoint and an
// end-of-stream checkpoint, where the maintained supports/confidences must
// be byte-identical to a from-scratch Dmine on the current graph. Sigma
// crossings must occur in BOTH directions somewhere across the battery —
// otherwise the stream never exercised re-expansion/retirement and the
// equivalence proved nothing about them.
TEST(MaintainEquivalenceTest, InterleavedStreamsMatchDmineAtCheckpoints) {
  const size_t kBatches = 4;
  const size_t kChurn = 30;
  uint64_t crossed_up = 0, crossed_down = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto g = std::make_shared<const Graph>(
        MakeSynthetic(300, 900, 10, seed * 17));
    Predicate q = PickQ(*g);
    auto m = RuleMaintainer::Seed(g, q, SmallMaintain());
    ASSERT_TRUE(m.ok()) << m.status();
    for (size_t b = 0; b < kBatches; ++b) {
      GraphDelta d = MakeChurn(*(*m)->graph(), q.edge_label,
                               seed * 1000 + b, kChurn);
      d.sequence = b + 1;
      auto ps = (*m)->ApplyDelta(d);
      ASSERT_TRUE(ps.ok()) << ps.status();
      crossed_up += ps->sigma_crossed_up;
      crossed_down += ps->sigma_crossed_down;
      if (b == kBatches / 2 - 1 || b == kBatches - 1) {
        ExpectMatchesDmine(
            **m, "seed " + std::to_string(seed) + " checkpoint after batch " +
                     std::to_string(b));
      }
    }
    EXPECT_EQ((*m)->last_sequence(), kBatches);
  }
  EXPECT_GT(crossed_up, 0u) << "no rule ever re-entered sigma";
  EXPECT_GT(crossed_down, 0u) << "no rule ever fell out of sigma";
}

// The incremental pass against its full-probe reference: after every
// batch, a fresh `Seed` on the post-batch graph (a BSP Dmine re-mine that
// probes every membership) must hold the same rule set and evidence, and
// the incremental pass must carry memberships the re-mine probes.
TEST(MaintainEquivalenceTest, IncrementalAblationIsResultIdentical) {
  auto g = std::make_shared<const Graph>(MakeSynthetic(300, 900, 10, 77));
  Predicate q = PickQ(*g);
  auto a = RuleMaintainer::Seed(g, q, SmallMaintain());
  ASSERT_TRUE(a.ok()) << a.status();
  for (size_t batch = 0; batch < 3; ++batch) {
    GraphDelta d = MakeChurn(*(*a)->graph(), q.edge_label, 500 + batch, 25);
    d.sequence = batch + 1;
    auto pa = (*a)->ApplyDelta(d);
    ASSERT_TRUE(pa.ok()) << pa.status();
    auto b = RuleMaintainer::Seed((*a)->graph(), q, SmallMaintain());
    ASSERT_TRUE(b.ok()) << b.status();
    const MaintainStats& pb = (*b)->lifetime_stats();
    EXPECT_EQ((*a)->TopKRecords(), (*b)->TopKRecords()) << "batch " << batch;
    EXPECT_EQ((*a)->objective(), (*b)->objective()) << "batch " << batch;
    EXPECT_EQ((*a)->evidence(), (*b)->evidence()) << "batch " << batch;
    EXPECT_EQ(pa->centers_reprobed + pa->centers_carried, pb.centers_reprobed)
        << "batch " << batch;
    // The carry is the whole point of the incremental path: the maintainer
    // must carry memberships the re-mine re-probes.
    EXPECT_GT(pa->centers_carried, 0u);
    EXPECT_EQ(pb.centers_carried, 0u);
  }
}

// Evidence-level battery: the top-k comparisons above only see rules in
// Σ, so a wrongly carried membership of a sub-sigma rule would stay hidden
// until its support crossed sigma. Here the full evidence — pools and
// every candidate's match sets — must equal a full-probe `Seed` on the
// post-batch graph after every batch, over plain churn, label-matched
// churn (every insert copies a triple already in the graph), and
// insert-only and delete-only batches. Every membership the maintainer
// carries is one the full probe probes.
TEST(MaintainEvidenceEquivalenceTest, CarriedEvidenceEqualsFullProbe) {
  const size_t kChurn = 20;
  uint64_t carried = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto g = std::make_shared<const Graph>(
        MakeSynthetic(300, 900, 10, seed * 31));
    Predicate q = PickQ(*g);
    auto on = RuleMaintainer::Seed(g, q, SmallMaintain());
    ASSERT_TRUE(on.ok()) << on.status();
    for (size_t b = 0; b < 6; ++b) {
      const std::shared_ptr<const Graph> cur = (*on)->graph();
      const uint64_t s = seed * 100 + b;
      GraphDelta d;
      switch (b) {
        case 0:
        case 3:
          d = MakeChurn(*cur, q.edge_label, s, kChurn);
          break;
        case 1:
        case 5:
          d = MakeLabelMatchedChurn(*cur, s, kChurn, kChurn);
          break;
        case 2:
          d = MakeLabelMatchedChurn(*cur, s, kChurn, 0);
          break;
        default:
          d = MakeLabelMatchedChurn(*cur, s, 0, kChurn);
          break;
      }
      d.sequence = b + 1;
      auto pon = (*on)->ApplyDelta(d);
      ASSERT_TRUE(pon.ok()) << pon.status();
      auto off = RuleMaintainer::Seed((*on)->graph(), q, SmallMaintain());
      ASSERT_TRUE(off.ok()) << off.status();
      const MaintainStats& poff = (*off)->lifetime_stats();
      const std::string what =
          "seed " + std::to_string(seed) + " batch " + std::to_string(b);
      EXPECT_EQ((*on)->evidence(), (*off)->evidence()) << what;
      EXPECT_EQ((*on)->TopKRecords(), (*off)->TopKRecords()) << what;
      EXPECT_EQ(pon->centers_reprobed + pon->centers_carried,
                poff.centers_reprobed)
          << what;
      EXPECT_EQ(poff.centers_carried, 0u) << what;
      carried += pon->centers_carried;
    }
  }
  EXPECT_GT(carried, 0u) << "the battery never carried a membership";
}

/// Whether any pattern the maintainer evaluated (P_R or x-component) has
/// an edge labelled `edge` from a `src`-labelled to a `dst`-labelled node.
bool AnyPatternUses(const RuleMaintainer& m, LabelId src, LabelId edge,
                    LabelId dst) {
  for (const EvidenceEntry& e : m.evidence().entries) {
    for (const Pattern* p : {&e.rule.pr(), &e.rule.x_component()}) {
      for (const PatternEdge& pe : p->edges()) {
        if (pe.label == edge && p->node(pe.src).label == src &&
            p->node(pe.dst).label == dst) {
          return true;
        }
      }
    }
  }
  return false;
}

/// A hand-built graph for the deterministic carry regressions. Predicate
/// person -buys-> item. Persons p0..p3 buy items (the q pool), p4 and p5
/// buy only a gift (the ~q pool), p6 and p7 buy nothing. Every person is
/// at a place and knows the next one around a ring. With a seed alphabet
/// of three triples (at, knows, buys-item), no evaluated pattern uses the
/// person -buys-> gift or item -at-> place triples.
struct CarryFixture {
  std::shared_ptr<const Graph> g;
  Predicate q;
  NodeId p6, gift, item0, place1;

  CarryFixture() {
    GraphBuilder b;
    std::vector<NodeId> p;
    for (int i = 0; i < 8; ++i) p.push_back(b.AddNode("person"));
    const NodeId i0 = b.AddNode("item");
    const NodeId i1 = b.AddNode("item");
    const NodeId l0 = b.AddNode("place");
    const NodeId l1 = b.AddNode("place");
    const NodeId g0 = b.AddNode("gift");
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(b.AddEdge(p[i], "at", i % 2 == 0 ? l0 : l1).ok());
      EXPECT_TRUE(b.AddEdge(p[i], "knows", p[(i + 1) % 8]).ok());
    }
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(b.AddEdge(p[i], "buys", i % 2 == 0 ? i0 : i1).ok());
    }
    EXPECT_TRUE(b.AddEdge(p[4], "buys", g0).ok());
    EXPECT_TRUE(b.AddEdge(p[5], "buys", g0).ok());
    const Interner& labels = *b.labels_ptr();
    q.x_label = labels.Lookup("person");
    q.edge_label = labels.Lookup("buys");
    q.y_label = labels.Lookup("item");
    g = std::make_shared<const Graph>(std::move(b).Build());
    p6 = p[6];
    gift = g0;
    item0 = i0;
    place1 = l1;
  }

  static MaintainOptions Options() {
    MaintainOptions opt;
    opt.mine.k = 2;
    opt.mine.d = 2;
    opt.mine.sigma = 1;
    opt.mine.max_pattern_edges = 2;
    opt.mine.seed_edge_limit = 3;
    return opt;
  }

  /// x-labelled nodes within distance 1 of `endpoints` in `before` or
  /// `after`: the centers whose pool status a pass re-probes.
  size_t PoolFrontier(const Graph& before, const Graph& after,
                      const std::vector<NodeId>& endpoints) const {
    std::set<NodeId> near;
    for (const Graph* graph : {&before, &after}) {
      for (const auto& [v, dist] :
           NodesWithinRadiusOfAny(*graph, endpoints, 1)) {
        if (graph->node_label(v) == q.x_label) near.insert(v);
      }
    }
    return near.size();
  }
};

// Pool-flip trap: inserting p6 -buys-> gift moves p6 into the ~q pool. No
// evaluated pattern uses that triple, so neither the label nor the
// direction test asks for a probe — but p6 is absent from every old
// antecedent match set only because it was outside the pool, not because
// it failed to match (p6 is at a place, like the ~q members). It must be
// re-probed, or supp(Q~q) and with it every confidence comes out short.
TEST(MaintainTest, CenterEnteringQbarIsReprobedWithoutRelevantEdges) {
  CarryFixture f;
  auto m = RuleMaintainer::Seed(f.g, f.q, CarryFixture::Options());
  ASSERT_TRUE(m.ok()) << m.status();
  ASSERT_FALSE((*m)->topk().empty());
  ASSERT_EQ((*m)->supp_qbar(), 2u);
  GraphDelta d;
  d.sequence = 1;
  d.inserts.push_back({f.p6, f.q.edge_label, f.gift});
  auto ps = (*m)->ApplyDelta(d);
  ASSERT_TRUE(ps.ok()) << ps.status();
  const Graph& after = *(*m)->graph();
  const Interner& labels = f.g->labels();
  const LabelId gift = labels.Lookup("gift");
  EXPECT_FALSE(AnyPatternUses(**m, f.q.x_label, f.q.edge_label, gift));
  EXPECT_EQ((*m)->supp_qbar(), 3u);
  ExpectMatchesDmine(**m, "after p6 entered ~q");

  auto full =
      RuleMaintainer::Seed((*m)->graph(), f.q, CarryFixture::Options());
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ((*m)->evidence(), (*full)->evidence());
  // Beyond the pool frontier, only the flipped p6 can have been probed.
  EXPECT_GT(ps->centers_reprobed, f.PoolFrontier(*f.g, after, {f.p6, f.gift}));
}

// Counter guard for the label test: a delta whose triple no evaluated
// pattern uses, and which flips no pool status, re-probes exactly the
// pool frontier and carries every pattern membership.
TEST(MaintainTest, IrrelevantTriplesReprobeOnlyThePoolFrontier) {
  CarryFixture f;
  auto m = RuleMaintainer::Seed(f.g, f.q, CarryFixture::Options());
  ASSERT_TRUE(m.ok()) << m.status();
  const Interner& labels = f.g->labels();
  const LabelId at = labels.Lookup("at");
  ASSERT_FALSE(AnyPatternUses(**m, f.q.y_label, at, labels.Lookup("place")));
  const std::vector<NodeId> endpoints = {f.item0, f.place1};
  for (uint64_t seq = 1; seq <= 2; ++seq) {
    GraphDelta d;
    d.sequence = seq;
    if (seq == 1) {
      d.inserts.push_back({f.item0, at, f.place1});
    } else {
      d.deletes.push_back({f.item0, at, f.place1});
    }
    const std::shared_ptr<const Graph> before = (*m)->graph();
    auto ps = (*m)->ApplyDelta(d);
    ASSERT_TRUE(ps.ok()) << ps.status();
    const size_t frontier = f.PoolFrontier(*before, *(*m)->graph(), endpoints);
    EXPECT_EQ(ps->centers_reprobed, frontier) << "batch " << seq;
    EXPECT_GT(ps->centers_carried, 0u) << "batch " << seq;
    EXPECT_EQ(ps->rules_reexpanded, 0u) << "batch " << seq;
    ExpectMatchesDmine(**m, "batch " + std::to_string(seq));
  }
}

// Mid-stream checkpoint through the at-rest format: export the evidence as
// a v2 snapshot, restore with FromEvidence, and drive both maintainers to
// the end of the stream — the restored one must stay byte-identical.
TEST(MaintainEquivalenceTest, SnapshotV2CheckpointRestoresMidStream) {
  const std::string path = "/tmp/gpar_maintain_ckpt.rules";
  auto g = std::make_shared<const Graph>(MakeSynthetic(300, 900, 10, 21));
  Predicate q = PickQ(*g);
  auto m = RuleMaintainer::Seed(g, q, SmallMaintain());
  ASSERT_TRUE(m.ok()) << m.status();
  for (size_t b = 0; b < 2; ++b) {
    GraphDelta d = MakeChurn(*(*m)->graph(), q.edge_label, 900 + b, 20);
    d.sequence = b + 1;
    ASSERT_TRUE((*m)->ApplyDelta(d).ok());
  }

  ASSERT_TRUE(WriteRuleSetSnapshotV2File((*m)->TopKRecords(),
                                         (*m)->evidence(),
                                         (*m)->graph()->labels(), path)
                  .ok());
  Interner labels = (*m)->graph()->labels();
  auto snap = ReadRuleSetSnapshotAnyFile(path, &labels);
  ASSERT_TRUE(snap.ok()) << snap.status();
  ASSERT_TRUE(snap->has_evidence);
  EXPECT_EQ(snap->rules, (*m)->TopKRecords());

  auto restored =
      RuleMaintainer::FromEvidence((*m)->graph(), snap->evidence,
                                   SmallMaintain());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored)->TopKRecords(), (*m)->TopKRecords());
  EXPECT_EQ((*restored)->objective(), (*m)->objective());
  // On the graph it was exported at, the restore pass re-derives the
  // evidence itself and probes no center.
  EXPECT_EQ((*restored)->evidence(), (*m)->evidence());
  EXPECT_EQ((*restored)->lifetime_stats().centers_reprobed, 0u);
  EXPECT_EQ((*restored)->lifetime_stats().rules_reexpanded, 0u);

  for (size_t b = 2; b < 4; ++b) {
    GraphDelta d = MakeChurn(*(*m)->graph(), q.edge_label, 900 + b, 20);
    d.sequence = b + 1;
    ASSERT_TRUE((*m)->ApplyDelta(d).ok());
    ASSERT_TRUE((*restored)->ApplyDelta(d).ok());
    EXPECT_EQ((*restored)->TopKRecords(), (*m)->TopKRecords());
  }
  ExpectMatchesDmine(**restored, "restored maintainer at end of stream");
  std::remove(path.c_str());
}

TEST(MaintainEquivalenceTest, FromEvidenceRejectsForeignSetup) {
  auto g = std::make_shared<const Graph>(MakeSynthetic(200, 600, 10, 5));
  Predicate q = PickQ(*g);
  auto m = RuleMaintainer::Seed(g, q, SmallMaintain());
  ASSERT_TRUE(m.ok()) << m.status();
  MaintainOptions other = SmallMaintain();
  other.mine.sigma = SmallMaintain().mine.sigma + 1;
  auto restored = RuleMaintainer::FromEvidence(g, (*m)->evidence(),
                                               other);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Serve integration: maintain-on-ApplyDelta on both server tiers.
// ---------------------------------------------------------------------------

TEST(MaintainServeTest, RuleServerMaintainsOnApplyDelta) {
  Graph g = MakeSynthetic(300, 900, 10, 51);
  Predicate q = PickQ(g);
  MaintainOptions mopt = SmallMaintain();
  std::vector<RuleRecord> records = DmineRecords(g, q, mopt.mine);
  ASSERT_FALSE(records.empty());

  RuleServerOptions sopt;
  sopt.num_workers = 2;
  auto server = RuleServer::Create(g, records, sopt);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE((*server)->EnableMaintenance(mopt).ok());
  EXPECT_TRUE((*server)->maintenance_enabled());
  // Seeding on the same graph under the same options reproduces the same
  // top-k — enabling maintenance must not change the served rules.
  EXPECT_EQ((*server)->rules(), records);

  auto st = (*server)->EnableMaintenance(mopt);
  ASSERT_FALSE(st.ok());  // double-enable is an error

  Graph reference = g;
  for (size_t b = 0; b < 3; ++b) {
    GraphDelta d = MakeChurn(reference, q.edge_label, 70 + b, 25);
    d.sequence = b + 1;
    auto ref = PatchGraph(reference, d);
    ASSERT_TRUE(ref.ok());
    reference = std::move(ref)->graph;
    auto ds = (*server)->ApplyDelta(d);
    ASSERT_TRUE(ds.ok()) << ds.status();
    std::vector<RuleRecord> want = DmineRecords(reference, q, mopt.mine);
    EXPECT_EQ((*server)->rules(), want) << "batch " << b;
  }
  // The maintained server must still answer queries on the final rule set.
  SessionRequest all;
  all.all_centers = true;
  all.eta = 1.0;
  auto answer = (*server)->Query(all);
  ASSERT_TRUE(answer.ok()) << answer.status();
}

TEST(MaintainServeTest, UpdateRulesRejectsAForeignPredicate) {
  Graph g = MakeSynthetic(300, 900, 10, 51);
  Predicate q = PickQ(g);
  std::vector<RuleRecord> records = DmineRecords(g, q, SmallMaintain().mine);
  ASSERT_FALSE(records.empty());
  RuleServerOptions sopt;
  sopt.num_workers = 2;
  auto server = RuleServer::Create(g, records, sopt);
  ASSERT_TRUE(server.ok()) << server.status();

  // A rule set over a different predicate: re-mine against another q.
  auto freq = FrequentEdgePatterns(g);
  ASSERT_GE(freq.size(), 2u);
  Predicate other{freq[1].src_label, freq[1].edge_label, freq[1].dst_label};
  ASSERT_FALSE(other == q);
  std::vector<RuleRecord> foreign =
      DmineRecords(g, other, SmallMaintain().mine);
  ASSERT_FALSE(foreign.empty());
  Status st = (*server)->UpdateRules(foreign);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("predicate"), std::string::npos) << st;

  // The empty set is the one exception (pool death under deletes): the
  // server keeps serving with zero rules rather than failing the refresh.
  EXPECT_TRUE((*server)->UpdateRules({}).ok());
  EXPECT_TRUE((*server)->rules().empty());
  SessionRequest all;
  all.all_centers = true;
  all.eta = 1.0;
  auto answer = (*server)->Query(all);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->rule_evals.empty());
}

SessionRequest AllCenters() {
  SessionRequest all;
  all.all_centers = true;
  all.eta = 1.0;
  return all;
}

/// Field-for-field equality of two all-centers replies.
bool SameAnswer(const SessionReply& a, const SessionReply& b) {
  if (a.matched != b.matched || a.entities != b.entities ||
      a.supp_q != b.supp_q || a.supp_qbar != b.supp_qbar ||
      a.rule_evals.size() != b.rule_evals.size()) {
    return false;
  }
  for (size_t i = 0; i < a.rule_evals.size(); ++i) {
    if (a.rule_evals[i].supp_r != b.rule_evals[i].supp_r ||
        a.rule_evals[i].supp_qqbar != b.rule_evals[i].supp_qqbar ||
        a.rule_evals[i].conf != b.rule_evals[i].conf) {
      return false;
    }
  }
  return true;
}

TEST(MaintainServeTest, ShardedServerMaintainsOnApplyDelta) {
  Graph g = MakeSynthetic(300, 900, 10, 51);
  Predicate q = PickQ(g);
  MaintainOptions mopt = SmallMaintain();
  std::vector<RuleRecord> records = DmineRecords(g, q, mopt.mine);
  ASSERT_FALSE(records.empty());

  ShardedRuleServerOptions shopt;
  shopt.num_shards = 2;
  shopt.shard_options.num_workers = 2;
  auto sharded = ShardedRuleServer::Create(g, records, shopt);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  ShardedRuleServer& sh = **sharded;

  // Any maintained radius is served: shards match their owned centers on
  // the shared parent graph, so a radius deeper than the one the centers
  // were partitioned at needs no re-cut. A 2-shard router and a single
  // server, both maintained one hop deeper, agree batch by batch.
  {
    MaintainOptions deep = mopt;
    deep.mine.d = mopt.mine.d + 1;
    auto router = ShardedRuleServer::Create(g, records, shopt);
    ASSERT_TRUE(router.ok()) << router.status();
    RuleServerOptions sopt;
    sopt.num_workers = 2;
    auto single = RuleServer::Create(g, records, sopt);
    ASSERT_TRUE(single.ok()) << single.status();
    ASSERT_TRUE((*router)->EnableMaintenance(deep).ok());
    ASSERT_TRUE((*single)->EnableMaintenance(deep).ok());
    Graph current = g;
    for (size_t b = 0; b < 2; ++b) {
      GraphDelta d = MakeChurn(current, q.edge_label, 80 + b, 20);
      d.sequence = b + 1;
      auto next = PatchGraph(current, d);
      ASSERT_TRUE(next.ok());
      current = std::move(next)->graph;
      auto rds = (*router)->ApplyDelta(d);
      ASSERT_TRUE(rds.ok()) << rds.status();
      auto sds = (*single)->ApplyDelta(d);
      ASSERT_TRUE(sds.ok()) << sds.status();
      EXPECT_EQ((*router)->rules(), (*single)->rules()) << "batch " << b;
      auto routed = (*router)->Query(AllCenters());
      ASSERT_TRUE(routed.ok()) << routed.status();
      auto alone = (*single)->Query(AllCenters());
      ASSERT_TRUE(alone.ok()) << alone.status();
      EXPECT_TRUE(SameAnswer(*routed, *alone)) << "batch " << b;
    }
  }

  ASSERT_TRUE(sh.EnableMaintenance(mopt).ok());
  EXPECT_TRUE(sh.maintenance_enabled());
  EXPECT_EQ(sh.rules(), records);

  Graph reference = g;
  for (size_t b = 0; b < 2; ++b) {
    GraphDelta d = MakeChurn(reference, q.edge_label, 80 + b, 20);
    d.sequence = b + 1;
    auto ref = PatchGraph(reference, d);
    ASSERT_TRUE(ref.ok());
    reference = std::move(ref)->graph;
    auto ds = sh.ApplyDelta(d);
    ASSERT_TRUE(ds.ok()) << ds.status();
    std::vector<RuleRecord> want = DmineRecords(reference, q, mopt.mine);
    EXPECT_EQ(sh.rules(), want) << "batch " << b;

    // The refreshed set must actually be served: a sharded all-centers
    // answer sizes its evals off the refreshed records.
    SessionRequest all;
    all.all_centers = true;
    all.eta = 1.0;
    auto reply = sh.Query(all);
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->rule_evals.size(), want.size());
  }
}

// Concurrent maintain + query: deltas (and their rule refreshes) race
// all-centers queries on both server tiers. Run under TSan by the widened
// CI regex; the assertion here is freedom from data races and torn rule
// sets, not specific answers.
TEST(MaintainServeTest, ConcurrentMaintainAndQuery) {
  Graph g = MakeSynthetic(300, 900, 10, 51);
  Predicate q = PickQ(g);
  MaintainOptions mopt = SmallMaintain();
  std::vector<RuleRecord> records = DmineRecords(g, q, mopt.mine);
  ASSERT_FALSE(records.empty());
  RuleServerOptions sopt;
  sopt.num_workers = 2;
  auto server = RuleServer::Create(g, records, sopt);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE((*server)->EnableMaintenance(mopt).ok());
  RuleServer& s = **server;

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    Graph current = g;
    for (size_t b = 0; b < 3; ++b) {
      GraphDelta d = MakeChurn(current, q.edge_label, 90 + b, 15);
      d.sequence = b + 1;
      auto ref = PatchGraph(current, d);
      if (!ref.ok()) {
        ++failures;
        break;
      }
      current = std::move(ref)->graph;
      if (!s.ApplyDelta(d).ok()) ++failures;
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      SessionRequest all;
      all.all_centers = true;
      all.eta = 1.0;
      while (!stop.load(std::memory_order_acquire)) {
        auto r = s.Query(all);
        if (!r.ok()) {
          ++failures;
          break;
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(s.rules(), DmineRecords(*s.graph_snapshot(), q, mopt.mine));
}

// ---------------------------------------------------------------------------
// The match cache across maintained rule refreshes.
// ---------------------------------------------------------------------------

/// The all-centers answer of a server built from scratch on `g` with
/// `rules` (non-empty).
SessionReply FreshAnswer(const Graph& g, const std::vector<RuleRecord>& rules) {
  RuleServerOptions opt;
  opt.num_workers = 2;
  auto fresh = RuleServer::Create(g, rules, opt);
  EXPECT_TRUE(fresh.ok()) << fresh.status();
  if (!fresh.ok()) return {};
  auto reply = (*fresh)->Query(AllCenters());
  EXPECT_TRUE(reply.ok()) << reply.status();
  return reply.ok() ? std::move(reply).value() : SessionReply{};
}

/// Maintained serving with supports that move on every batch (churn on the
/// q edge label): every all-centers reply equals a fresh server's on the
/// patched graph with the served rules, and a refresh that carried rules
/// keeps answering them from the cache.
void CheckMaintainedCache(ServeSession& s, const Graph& g, const Predicate& q,
                          uint64_t seed) {
  ASSERT_TRUE(s.Query(AllCenters()).ok());  // warm
  Graph reference = g;
  size_t carried_refreshes = 0;
  for (size_t b = 0; b < 6; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    GraphDelta d = MakeChurn(reference, q.edge_label, seed * 101 + b, 6);
    d.sequence = b + 1;
    auto ref = PatchGraph(reference, d);
    ASSERT_TRUE(ref.ok());
    reference = std::move(ref)->graph;
    auto ds = s.ApplyDelta(d);
    ASSERT_TRUE(ds.ok()) << ds.status();

    auto reply = s.Query(AllCenters());
    ASSERT_TRUE(reply.ok()) << reply.status();
    const std::vector<RuleRecord> served = s.rules();
    if (served.empty()) {
      EXPECT_TRUE(reply->rule_evals.empty());
    } else {
      EXPECT_TRUE(SameAnswer(*reply, FreshAnswer(reference, served)));
    }
    if (ds->rules_refreshed != 0 && ds->rules_carried > 0) {
      ++carried_refreshes;
      EXPECT_GT(reply->stats.cache_hits, 0u);
    }
  }
  // The stream must exercise the remap, or the battery proves nothing.
  EXPECT_GT(carried_refreshes, 0u);
}

class MaintainedCacheEquivalence : public ::testing::TestWithParam<uint64_t> {
};

INSTANTIATE_TEST_SUITE_P(Seeds, MaintainedCacheEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST_P(MaintainedCacheEquivalence, SingleServer) {
  Graph g = MakeSynthetic(300, 900, 10, GetParam());
  Predicate q = PickQ(g);
  RuleServerOptions sopt;
  sopt.num_workers = 2;
  auto server =
      RuleServer::Create(g, DmineRecords(g, q, SmallMaintain().mine), sopt);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE((*server)->EnableMaintenance(SmallMaintain()).ok());
  CheckMaintainedCache(**server, g, q, GetParam());
}

TEST_P(MaintainedCacheEquivalence, ShardedServer) {
  Graph g = MakeSynthetic(300, 900, 10, GetParam());
  Predicate q = PickQ(g);
  MaintainOptions mopt = SmallMaintain();
  const std::vector<RuleRecord> records = DmineRecords(g, q, mopt.mine);
  ASSERT_FALSE(records.empty());
  ShardedRuleServerOptions shopt;
  shopt.num_shards = 2;
  shopt.shard_options.num_workers = 2;
  auto sharded = ShardedRuleServer::Create(g, records, shopt);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  // The fragments are cut for the loaded rules' radius, which bounds the
  // maintained one.
  mopt.mine.d = 1;
  for (const RuleRecord& r : records) {
    mopt.mine.d = std::max(mopt.mine.d, r.rule.eval_radius());
  }
  ASSERT_TRUE((*sharded)->EnableMaintenance(mopt).ok());
  CheckMaintainedCache(**sharded, g, q, GetParam());
}

// One writer applies maintained batches (most refresh the rule set) while
// two readers query all centers. Each reply must be the fresh answer at ONE
// generation of the stream — never a mix of two graphs, nor bits of one
// rule set read as another's. `num_shards` 0 serves
// from a `RuleServer`, k > 0 from a k-shard router of 2 workers per shard.
// Run under TSan by the CI regex.
void CheckConcurrentRepliesMatchOneGeneration(uint32_t num_shards) {
  Graph g = MakeSynthetic(300, 900, 10, 51);
  Predicate q = PickQ(g);
  MaintainOptions mopt = SmallMaintain();
  constexpr size_t kBatches = 4;

  // The deterministic stream and the fresh answer at each generation (the
  // maintained rules at a generation are DMine's on its graph).
  std::vector<GraphDelta> stream;
  std::vector<SessionReply> generations;
  Graph reference = g;
  for (size_t b = 0; b <= kBatches; ++b) {
    const std::vector<RuleRecord> rules = DmineRecords(reference, q, mopt.mine);
    ASSERT_FALSE(rules.empty()) << "generation " << b;
    generations.push_back(FreshAnswer(reference, rules));
    if (b == kBatches) break;
    GraphDelta d = MakeChurn(reference, q.edge_label, 130 + b, 15);
    d.sequence = b + 1;
    auto ref = PatchGraph(reference, d);
    ASSERT_TRUE(ref.ok());
    reference = std::move(ref)->graph;
    stream.push_back(std::move(d));
  }

  RuleServerOptions sopt;
  sopt.num_workers = 2;
  std::unique_ptr<ServeSession> server;
  if (num_shards == 0) {
    auto single = RuleServer::Create(g, DmineRecords(g, q, mopt.mine), sopt);
    ASSERT_TRUE(single.ok()) << single.status();
    server = std::move(single).value();
  } else {
    ShardedRuleServerOptions shopt;
    shopt.num_shards = num_shards;
    shopt.shard_options = sopt;
    auto sharded =
        ShardedRuleServer::Create(g, DmineRecords(g, q, mopt.mine), shopt);
    ASSERT_TRUE(sharded.ok()) << sharded.status();
    server = std::move(sharded).value();
  }
  ASSERT_TRUE(server->EnableMaintenance(mopt).ok());
  ServeSession& s = *server;

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> mixed{0};
  std::atomic<int> checked{0};
  std::thread writer([&] {
    for (const GraphDelta& d : stream) {
      if (!s.ApplyDelta(d).ok()) ++failures;
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      // At least a few replies per reader, however fast the writer is.
      for (int n = 0; n < 3 || !stop.load(std::memory_order_acquire); ++n) {
        auto r = s.Query(AllCenters());
        if (!r.ok()) {
          ++failures;
          break;
        }
        ++checked;
        if (std::none_of(generations.begin(), generations.end(),
                         [&](const SessionReply& want) {
                           return SameAnswer(*r, want);
                         })) {
          ++mixed;
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mixed.load(), 0) << "of " << checked.load() << " replies";
  auto last = s.Query(AllCenters());
  ASSERT_TRUE(last.ok());
  EXPECT_TRUE(SameAnswer(*last, generations.back()));
}

TEST(MaintainServeTest, ConcurrentRepliesMatchOneGeneration) {
  CheckConcurrentRepliesMatchOneGeneration(/*num_shards=*/0);
}

TEST(MaintainServeTest, ConcurrentRouterRepliesMatchOneGeneration) {
  CheckConcurrentRepliesMatchOneGeneration(/*num_shards=*/2);
}

}  // namespace
}  // namespace gpar
