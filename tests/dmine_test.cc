#include "mine/dmine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_map>

#include "graph/generator.h"
#include "graph/graph_builder.h"
#include "graph/paper_graphs.h"
#include "match/matcher.h"
#include "mine/naive_miner.h"
#include "pattern/automorphism.h"
#include "pattern/pattern_ops.h"
#include "rule/metrics.h"
#include "test_util.h"

namespace gpar {
namespace {

DmineOptions SmallOptions() {
  DmineOptions opt;
  opt.num_workers = 2;
  opt.k = 2;
  opt.d = 2;
  opt.sigma = 1;
  opt.lambda = 0.5;
  opt.max_pattern_edges = 4;
  opt.seed_edge_limit = 8;
  opt.max_candidates_per_round = 200;
  return opt;
}

/// Canonical fingerprint of a mined pool: per rule, (bucket key, supp,
/// supp_qqbar) sorted — two runs with equal fingerprints found the same
/// rules with the same statistics.
std::vector<std::string> PoolFingerprint(
    const std::vector<std::shared_ptr<MinedRule>>& pool) {
  std::vector<std::string> out;
  for (const auto& r : pool) {
    out.push_back(IsomorphismBucketKey(r->rule.pr()) + "|s=" +
                  std::to_string(r->supp) + "|n=" +
                  std::to_string(r->supp_qqbar));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(DmineTest, DiscoversRulesOnG1) {
  PaperG1 g1 = MakePaperG1();
  auto result = Dmine(g1.graph, g1.q, SmallOptions());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.supp_q, 5u);
  EXPECT_EQ(result->stats.supp_qbar, 1u);
  EXPECT_GT(result->stats.accepted, 0u);
  ASSERT_EQ(result->topk.size(), 2u);
  EXPECT_GT(result->objective, 0.9);  // at least Example 9's round-1 value

  // Every reported rule's statistics must agree with a from-scratch
  // sequential evaluation (cross-validation of the parallel assembly).
  VF2Matcher m(g1.graph);
  QStats stats = ComputeQStats(m, g1.q);
  for (const auto& r : result->topk) {
    GparEval eval = EvaluateGpar(m, r->rule, stats,
                                 {.compute_antecedent_images = false});
    EXPECT_EQ(r->supp, eval.supp_r);
    EXPECT_EQ(r->supp_qqbar, eval.supp_qqbar);
    EXPECT_DOUBLE_EQ(r->conf, eval.conf);
    EXPECT_EQ(r->matches, eval.pr_matches);
    EXPECT_LE(r->rule.radius_at_x(), SmallOptions().d);
    EXPECT_GE(r->supp, SmallOptions().sigma);
  }
}

TEST(DmineTest, PoolIndependentOfWorkerCount) {
  // Parallel correctness: the accepted rule pool (with exact supports) must
  // not depend on n. Reduction rules are disabled so pruning order cannot
  // mask differences.
  PaperG1 g1 = MakePaperG1();
  DmineOptions opt = SmallOptions();
  opt.enable_reduction_rules = false;

  std::vector<std::string> reference;
  for (uint32_t n : {1u, 2u, 4u}) {
    opt.num_workers = n;
    auto result = Dmine(g1.graph, g1.q, opt);
    ASSERT_TRUE(result.ok());
    // Recover the pool from stats: compare via accepted counts + topk only
    // is weak; rerun and compare pool fingerprints via NaiveMine below.
    if (reference.empty()) {
      reference.push_back(std::to_string(result->stats.accepted));
    } else {
      EXPECT_EQ(reference[0], std::to_string(result->stats.accepted))
          << "accepted pool size differs at n=" << n;
    }
    EXPECT_GT(result->objective, 0.0);
  }
}

TEST(DmineTest, MatchesNaiveMinerOracle) {
  // DMine without reduction pruning must discover exactly the same rules
  // with the same supports as the sequential exhaustive miner.
  PaperG1 g1 = MakePaperG1();
  DmineOptions opt = SmallOptions();
  opt.enable_reduction_rules = false;

  auto naive = NaiveMine(g1.graph, g1.q, opt);
  ASSERT_TRUE(naive.ok());
  ASSERT_GT(naive->all_rules.size(), 0u);

  opt.num_workers = 3;
  auto parallel = Dmine(g1.graph, g1.q, opt);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->stats.accepted, naive->all_rules.size());

  // Compare via sequential re-evaluation of DMine's top-k against the
  // naive pool fingerprints.
  auto naive_fp = PoolFingerprint(naive->all_rules);
  for (const auto& r : parallel->topk) {
    std::string fp = IsomorphismBucketKey(r->rule.pr()) + "|s=" +
                     std::to_string(r->supp) + "|n=" +
                     std::to_string(r->supp_qqbar);
    EXPECT_TRUE(std::binary_search(naive_fp.begin(), naive_fp.end(), fp))
        << "DMine produced a rule the oracle does not know: " << fp;
  }
}

TEST(DmineTest, DmineNoFindsSameQualityTopK) {
  // DMineno (no optimizations) is slower but must reach a top-k of the
  // same objective quality (both are 2-approximations; the greedy choices
  // coincide on this small instance).
  PaperG1 g1 = MakePaperG1();
  DmineOptions opt = SmallOptions();
  auto fast = Dmine(g1.graph, g1.q, opt);
  auto slow = Dmine(g1.graph, g1.q, DmineNoOptions(opt));
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_NEAR(fast->objective, slow->objective, 1e-9);
}

TEST(DmineTest, SupportThresholdFilters) {
  PaperG1 g1 = MakePaperG1();
  DmineOptions opt = SmallOptions();
  opt.sigma = 4;  // only rules with supp >= 4 survive
  auto result = Dmine(g1.graph, g1.q, opt);
  ASSERT_TRUE(result.ok());
  for (const auto& r : result->topk) {
    EXPECT_GE(r->supp, 4u);
  }
}

TEST(DmineTest, TrivialPredicateYieldsEmptyResult) {
  PaperG1 g1 = MakePaperG1();
  Predicate q = g1.q;
  q.edge_label = g1.graph.labels().Lookup("live_in");
  q.y_label = g1.graph.labels().Lookup("Asian_restaurant");  // nobody
  auto result = Dmine(g1.graph, q, SmallOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.supp_q, 0u);
  EXPECT_TRUE(result->topk.empty());
}

TEST(DmineTest, InvalidOptionsRejected) {
  PaperG1 g1 = MakePaperG1();
  DmineOptions opt = SmallOptions();
  opt.num_workers = 0;
  EXPECT_FALSE(Dmine(g1.graph, g1.q, opt).ok());
  opt = SmallOptions();
  opt.k = 1;
  EXPECT_FALSE(Dmine(g1.graph, g1.q, opt).ok());
  opt = SmallOptions();
  opt.d = 0;
  EXPECT_FALSE(Dmine(g1.graph, g1.q, opt).ok());
  // lambda must be a finite value in [0, 1]; both endpoints are valid.
  for (double lambda : {1.5, -0.1, std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity()}) {
    opt = SmallOptions();
    opt.lambda = lambda;
    auto r = Dmine(g1.graph, g1.q, opt);
    ASSERT_FALSE(r.ok()) << "lambda " << lambda;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  for (double lambda : {0.0, 1.0}) {
    opt = SmallOptions();
    opt.lambda = lambda;
    EXPECT_TRUE(Dmine(g1.graph, g1.q, opt).ok()) << lambda;
  }
}

TEST(DmineTest, BisimPrefilterDoesNotChangeDedup) {
  // Lemma 4 guarantees the prefilter never merges non-automorphic rules:
  // candidate counts with and without it must be identical.
  PaperG1 g1 = MakePaperG1();
  DmineOptions with = SmallOptions();
  DmineOptions without = SmallOptions();
  without.enable_bisim_prefilter = false;
  auto a = Dmine(g1.graph, g1.q, with);
  auto b = Dmine(g1.graph, g1.q, without);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->stats.candidates_verified, b->stats.candidates_verified);
  EXPECT_EQ(a->stats.automorphic_merged, b->stats.automorphic_merged);
  EXPECT_GT(a->stats.bisim_tests, 0u);
  EXPECT_EQ(b->stats.bisim_tests, 0u);
  // The prefilter skips exact iso tests for non-bisimilar pairs.
  EXPECT_LE(a->stats.iso_tests, b->stats.iso_tests);
}

TEST(DmineTest, GenerateExtensionsRadiusDiscipline) {
  // One-edge extensions of the bare predicate, and of those, stay within
  // the radius bound d — measured on P_R *and* on the antecedent's
  // x-component (eval_radius).
  PaperG1 g1 = MakePaperG1();
  const Interner& labels = g1.graph.labels();
  Pattern base;
  PNodeId x = base.AddNode(labels.Lookup("cust"));
  PNodeId y = base.AddNode(labels.Lookup("French_restaurant"));
  base.set_x(x);
  base.set_y(y);

  auto seeds = FrequentEdgePatterns(g1.graph, 8);
  const uint32_t d = 2;
  auto level1 = GenerateExtensions(base, labels.Lookup("visit"), d, 4, seeds);
  ASSERT_GT(level1.size(), 0u);
  for (const Gpar& r : level1) {
    EXPECT_LE(r.eval_radius(), d);
    EXPECT_EQ(r.antecedent().num_edges(), 1u);
  }

  for (const Gpar& r : level1) {
    auto level2 = GenerateExtensions(r.antecedent(), labels.Lookup("visit"),
                                     d, 4, seeds);
    for (const Gpar& r2 : level2) {
      EXPECT_LE(r2.eval_radius(), d);
      EXPECT_EQ(r2.antecedent().num_edges(), 2u);
    }
  }

  // Edge cap: no extensions beyond max_edges.
  auto capped = GenerateExtensions(level1[0].antecedent(),
                                   labels.Lookup("visit"), d, 1, seeds);
  EXPECT_TRUE(capped.empty());
}

TEST(DmineTest, CandidateCapDoesNotPoisonDedupState) {
  // Regression: the cap used to be applied AFTER every fresh pattern was
  // registered in seen_buckets, so a candidate dropped by the cap could
  // never re-enter in a later round (silently merged as "seen").
  PaperG1 g1 = MakePaperG1();
  const Interner& labels = g1.graph.labels();
  Pattern base;
  PNodeId x = base.AddNode(labels.Lookup("cust"));
  PNodeId y = base.AddNode(labels.Lookup("French_restaurant"));
  base.set_x(x);
  base.set_y(y);
  auto seeds = FrequentEdgePatterns(g1.graph, 8);
  auto fresh = GenerateExtensions(base, labels.Lookup("visit"), 2, 4, seeds);

  // Two non-equivalent candidates, found via an uncapped side dedup.
  std::unordered_map<uint64_t, std::vector<Pattern>> probe;
  DmineStats probe_stats;
  auto distinct = DedupCandidates(fresh, fresh.size(), &probe, false,
                                  &probe_stats);
  ASSERT_GE(distinct.size(), 2u);
  std::vector<Gpar> round_a{fresh[distinct[0]], fresh[distinct[1]]};

  // Round A with cap 1: only the first candidate is kept and registered.
  std::unordered_map<uint64_t, std::vector<Pattern>> seen;
  DmineStats stats;
  auto kept = DedupCandidates(round_a, 1, &seen, false, &stats);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0], 0u);
  EXPECT_EQ(stats.automorphic_merged, 0u);

  // Round B re-proposes the dropped candidate: it must re-enter, not be
  // deduped against a pattern that was never actually verified.
  std::vector<Gpar> round_b{fresh[distinct[1]]};
  auto kept_b = DedupCandidates(round_b, 10, &seen, false, &stats);
  ASSERT_EQ(kept_b.size(), 1u);
  EXPECT_EQ(stats.automorphic_merged, 0u);

  // The candidate that WAS kept in round A is seen and stays deduped.
  std::vector<Gpar> round_c{fresh[distinct[0]]};
  EXPECT_TRUE(DedupCandidates(round_c, 10, &seen, false, &stats).empty());
  EXPECT_EQ(stats.automorphic_merged, 1u);
}

TEST(DmineTest, DegenerateNoNegativePoolStaysFinite) {
  // Every cust's q-edge lands on a French restaurant: supp(~q) = 0, so
  // N = supp_q * supp_qbar = 0 and every rule would be a trivial logic
  // rule. Mining must return an empty, finite result — no NaN/inf from the
  // normalizer's division paths.
  GraphBuilder b;
  NodeId c1 = b.AddNode("cust");
  NodeId c2 = b.AddNode("cust");
  NodeId c3 = b.AddNode("cust");
  NodeId fr = b.AddNode("French_restaurant");
  ASSERT_TRUE(b.AddEdge(c1, "visit", fr).ok());
  ASSERT_TRUE(b.AddEdge(c2, "visit", fr).ok());
  ASSERT_TRUE(b.AddEdge(c3, "visit", fr).ok());
  ASSERT_TRUE(b.AddEdge(c1, "friend", c2).ok());
  ASSERT_TRUE(b.AddEdge(c2, "friend", c3).ok());
  Graph g = std::move(b).Build();
  Predicate q{g.labels().Lookup("cust"), g.labels().Lookup("visit"),
              g.labels().Lookup("French_restaurant")};

  auto result = Dmine(g, q, SmallOptions());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.supp_q, 3u);
  EXPECT_EQ(result->stats.supp_qbar, 0u);
  EXPECT_TRUE(result->topk.empty());
  EXPECT_TRUE(std::isfinite(result->objective));
  EXPECT_EQ(result->objective, 0.0);
}

/// Builds a designated-preserving isomorphic copy of `r` by reversing the
/// antecedent's node declaration order — a distinct Gpar object that DMine's
/// automorphism dedup must collapse with the original.
Gpar IsomorphicCopy(const Gpar& r) {
  auto result = Gpar::Create(test::ReversedIsomorphicCopy(r.antecedent()),
                             r.q_label());
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

TEST(DmineTest, CrossFragmentAutomorphicProposalsMergeWithoutPoisoning) {
  // The cap regression on a generated stream: two fragments' slots may
  // hold *automorphic* (not byte-equal) extensions, which the automorphism
  // dedup must collapse with `automorphic_merged` incremented — and a
  // candidate dropped by the per-round cap must not be poisoned as "seen"
  // by its automorphic twin's rejection.
  PaperG1 g1 = MakePaperG1();
  const Interner& labels = g1.graph.labels();
  Pattern base;
  base.set_x(base.AddNode(labels.Lookup("cust")));
  base.set_y(base.AddNode(labels.Lookup("French_restaurant")));
  auto seeds = FrequentEdgePatterns(g1.graph, 8);
  auto fresh = GenerateExtensions(base, labels.Lookup("visit"), 2, 4, seeds);

  std::unordered_map<uint64_t, std::vector<Pattern>> probe;
  DmineStats probe_stats;
  auto distinct =
      DedupCandidates(fresh, fresh.size(), &probe, false, &probe_stats);
  ASSERT_GE(distinct.size(), 3u);
  const Gpar& a = fresh[distinct[0]];
  const Gpar& b = fresh[distinct[1]];
  const Gpar& c = fresh[distinct[2]];
  Gpar a_twin = IsomorphicCopy(a);
  ASSERT_TRUE(AreIsomorphic(a.pr(), a_twin.pr(), /*preserve_designated=*/true));

  // The concatenated slots: a, its automorphic twin, then b and c.
  const std::vector<Gpar> stream{a, a_twin, b, c};

  // Cap 2: `a` is kept; its automorphic twin is merged (a merge does not
  // consume cap budget — `b` still enters); `c` is dropped by the cap and
  // must NOT be registered as seen.
  DmineStats stats;
  std::unordered_map<uint64_t, std::vector<Pattern>> seen;
  auto kept = DedupCandidates(stream, 2, &seen, false, &stats);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0], 0u);  // a
  EXPECT_EQ(kept[1], 2u);  // b — the twin at index 1 was merged away
  EXPECT_EQ(stats.automorphic_merged, 1u);

  // A later round re-proposes c: it must re-enter...
  std::vector<Gpar> round_b{c};
  EXPECT_EQ(DedupCandidates(round_b, 10, &seen, false, &stats).size(), 1u);
  EXPECT_EQ(stats.automorphic_merged, 1u);
  // ...while re-proposals of a (or its twin) stay merged.
  std::vector<Gpar> round_c{IsomorphicCopy(a)};
  EXPECT_TRUE(DedupCandidates(round_c, 10, &seen, false, &stats).empty());
  EXPECT_EQ(stats.automorphic_merged, 2u);
}

TEST(DmineTest, WorkerGenProposalStatsAreConsistent) {
  // End-to-end bookkeeping on a multi-fragment run: every worker reports
  // how many extensions it generated, single-owner assignment spreads
  // generation across several workers, and the per-worker counts sum to
  // the candidates generated.
  Graph g = MakeSynthetic(400, 1200, 20, 5);
  auto freq = FrequentEdgePatterns(g, 1);
  ASSERT_FALSE(freq.empty());
  Predicate q{freq[0].src_label, freq[0].edge_label, freq[0].dst_label};
  DmineOptions opt = SmallOptions();
  opt.num_workers = 4;
  opt.sigma = 2;

  auto result = Dmine(g, q, opt);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->stats.proposals_per_worker.size(), 4u);
  uint64_t raw = 0;
  uint32_t proposing_workers = 0;
  for (uint64_t p : result->stats.proposals_per_worker) {
    raw += p;
    if (p > 0) ++proposing_workers;
  }
  EXPECT_GT(raw, 0u);
  // Ownership round-robins over surviving fragments: generation work lands
  // on more than one worker...
  EXPECT_GT(proposing_workers, 1u);
  // ...and no parent is extended twice.
  EXPECT_EQ(raw, result->stats.candidates_generated);
}

TEST(DmineTest, WorksOnSyntheticGraph) {
  Graph g = MakeSynthetic(400, 1200, 20, 5);
  auto freq = FrequentEdgePatterns(g, 1);
  ASSERT_FALSE(freq.empty());
  Predicate q{freq[0].src_label, freq[0].edge_label, freq[0].dst_label};
  DmineOptions opt = SmallOptions();
  opt.sigma = 2;
  auto result = Dmine(g, q, opt);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->stats.candidates_verified, 0u);
  // The shared plan store (on by default) plans each round's patterns once
  // and serves every worker probe from the same read-only entries.
  EXPECT_GT(result->stats.plans_prepared, 0u);
  // Every worker-loop probe (round-0 P_q plus each candidate's P_R and
  // x-component, all anchored at x) is served by the store.
  EXPECT_EQ(result->stats.plans_shared_hits, result->stats.exists_calls);
}

}  // namespace
}  // namespace gpar
