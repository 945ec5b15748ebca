#include "rule/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

#include "graph/paper_graphs.h"
#include "match/matcher.h"
#include "mine/fsm.h"
#include "rule/diversity.h"
#include "test_util.h"

namespace gpar {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  MetricsTest() : g1_(MakePaperG1()), m_(g1_.graph) {
    stats_ = ComputeQStats(m_, g1_.q);
  }
  PaperG1 g1_;
  VF2Matcher m_;
  QStats stats_;
};

TEST_F(MetricsTest, PcaConfMatchesPaperDefinition) {
  // PCAconf(R, G) = supp(R, G) / supp(Q~q, G) per the paper's Exp-2.
  GparEval e1 = EvaluateGpar(m_, g1_.r1, stats_);
  EXPECT_DOUBLE_EQ(e1.pca_conf, 3.0 / 1.0);
  GparEval e8 = EvaluateGpar(m_, g1_.r8, stats_);
  EXPECT_DOUBLE_EQ(e8.pca_conf, 1.0 / 1.0);
}

TEST_F(MetricsTest, ConventionalConfRequiresAntecedentImages) {
  GparEval with = EvaluateGpar(m_, g1_.r1, stats_,
                               {.compute_antecedent_images = true});
  EXPECT_DOUBLE_EQ(with.conventional_conf, 3.0 / 4.0);
  GparEval without = EvaluateGpar(m_, g1_.r1, stats_,
                                  {.compute_antecedent_images = false});
  EXPECT_EQ(without.supp_q_ant, 0u);
  EXPECT_DOUBLE_EQ(without.conventional_conf, 0.0);
  // But the BF confidence is unaffected by the flag.
  EXPECT_DOUBLE_EQ(with.conf, without.conf);
}

TEST_F(MetricsTest, MinImageSupportOnKnownPattern) {
  // friend(x, x') over the two triangles: each node image set is all six
  // customers; min image = 6.
  const Interner& labels = g1_.graph.labels();
  Pattern p;
  PNodeId x = p.AddNode(labels.Lookup("cust"));
  PNodeId z = p.AddNode(labels.Lookup("cust"));
  p.AddEdge(x, labels.Lookup("friend"), z);
  p.set_x(x);
  EXPECT_EQ(MinImageSupport(m_, p), 6u);

  // live_in(cust, city): images are 6 custs and 2 cities -> min image 2.
  Pattern q;
  PNodeId qx = q.AddNode(labels.Lookup("cust"));
  PNodeId qc = q.AddNode(labels.Lookup("city"));
  q.AddEdge(qx, labels.Lookup("live_in"), qc);
  q.set_x(qx);
  EXPECT_EQ(MinImageSupport(m_, q), 2u);
}

TEST_F(MetricsTest, MinImageSupportRespectsCap) {
  const Interner& labels = g1_.graph.labels();
  Pattern p;
  PNodeId x = p.AddNode(labels.Lookup("cust"));
  PNodeId z = p.AddNode(labels.Lookup("cust"));
  p.AddEdge(x, labels.Lookup("friend"), z);
  p.set_x(x);
  // With a tiny cap the measure can only shrink, never grow.
  EXPECT_LE(MinImageSupport(m_, p, 3), 6u);
}

TEST_F(MetricsTest, ImageBasedConfFinite) {
  GparEval e1 = EvaluateGpar(m_, g1_.r1, stats_);
  double iconf = ImageBasedConf(m_, g1_.r1, stats_, e1.supp_qqbar);
  EXPECT_TRUE(std::isfinite(iconf));
  EXPECT_GT(iconf, 0.0);
}

TEST_F(MetricsTest, EmptyQbarMakesRulesLogicRules) {
  // A predicate with positives but no negatives: like(cust, city)? No —
  // build one where every edge-holder matches: visit(cust, Asian) has
  // cust5 as only visitor -> supp_q=1, qbar = custs visiting non-Asian =
  // cust1..4,6.
  Predicate q{g1_.graph.labels().Lookup("cust"),
              g1_.graph.labels().Lookup("visit"),
              g1_.graph.labels().Lookup("Asian_restaurant")};
  QStats s = ComputeQStats(m_, q);
  EXPECT_EQ(s.supp_q, 1u);       // cust5
  EXPECT_EQ(s.supp_qbar, 5u);    // the French-restaurant visitors
}

TEST(JaccardTest, EdgeCases) {
  EXPECT_DOUBLE_EQ(JaccardDistance({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardDistance({1, 2}, {}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardDistance({1, 2}, {1, 2}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardDistance({1, 2, 3}, {3, 4, 5}), 0.8);  // 1 - 1/5
}

// The bitset kernel against the sorted-merge oracle, bit for bit, over
// random subsets of random universes. Encoding the whole universe first
// pins every node's rank to its position, so the boundary ranks (0, 63, 64,
// the last) are exercised on purpose, across one, two and 14 words.
TEST(JaccardTest, BitsetKernelMatchesMergeOracle) {
  std::mt19937_64 rng(20150601);
  for (size_t n : {1, 63, 64, 65, 833}) {
    std::vector<NodeId> universe;
    while (universe.size() < n) {
      universe.push_back(static_cast<NodeId>(rng() % 100000));
      std::sort(universe.begin(), universe.end());
      universe.erase(std::unique(universe.begin(), universe.end()),
                     universe.end());
    }
    MatchRanks ranks;
    const MatchBitset all = ranks.Encode(universe);
    ASSERT_EQ(all.count, n);

    auto subset = [&](double p, std::vector<size_t> forced) {
      std::bernoulli_distribution keep(p);
      std::vector<NodeId> out;
      for (size_t r = 0; r < n; ++r) {
        if (keep(rng) ||
            std::find(forced.begin(), forced.end(), r) != forced.end()) {
          out.push_back(universe[r]);
        }
      }
      return out;
    };
    std::vector<std::vector<NodeId>> sets{{}, universe};
    std::vector<size_t> boundary;
    for (size_t r : {size_t{0}, size_t{63}, size_t{64}, n - 1}) {
      if (r < n) boundary.push_back(r);
    }
    for (size_t r : boundary) sets.push_back({universe[r]});
    sets.push_back(subset(0, boundary));
    for (double p : {0.05, 0.3, 0.5, 0.9}) {
      for (int rep = 0; rep < 4; ++rep) {
        sets.push_back(subset(p, {}));
        sets.push_back(subset(p, boundary));
      }
    }
    // Disjoint halves: ranks below n/2 versus the rest.
    sets.emplace_back(universe.begin(), universe.begin() + n / 2);
    sets.emplace_back(universe.begin() + n / 2, universe.end());

    std::vector<MatchBitset> bits;
    for (const auto& s : sets) bits.push_back(ranks.Encode(s));
    for (size_t i = 0; i < sets.size(); ++i) {
      EXPECT_EQ(bits[i].count, sets[i].size());
      for (size_t j = 0; j < sets.size(); ++j) {
        const double want = test::MergeJaccardDistance(sets[i], sets[j]);
        EXPECT_EQ(BitsetJaccardDistance(bits[i], bits[j]), want)
            << "n=" << n << " sets " << i << ", " << j;
        EXPECT_EQ(JaccardDistance(sets[i], sets[j]), want)
            << "n=" << n << " sets " << i << ", " << j;
      }
    }
    // The named corner cases: both empty, one empty, identical, disjoint.
    EXPECT_EQ(BitsetJaccardDistance(bits[0], bits[0]), 0.0);
    EXPECT_EQ(BitsetJaccardDistance(bits[0], bits[1]), 1.0);
    EXPECT_EQ(BitsetJaccardDistance(bits[1], bits[1]), 0.0);
    if (n > 1) {
      EXPECT_EQ(BitsetJaccardDistance(bits[bits.size() - 2], bits.back()),
                1.0);
    }
  }
}

// Bitsets of different widths: ranks handed out on first sight make a set
// encoded early shorter than one encoded after the universe grew.
TEST(JaccardTest, BitsetsOfDifferentWidthsCompare) {
  MatchRanks ranks;
  std::vector<NodeId> early{5, 9};
  std::vector<NodeId> late;
  for (NodeId v = 0; v < 200; ++v) late.push_back(v);
  const MatchBitset a = ranks.Encode(early);
  const MatchBitset b = ranks.Encode(late);
  ASSERT_LT(a.words.size(), b.words.size());
  EXPECT_EQ(BitsetJaccardDistance(a, b),
            test::MergeJaccardDistance(early, late));
  EXPECT_EQ(BitsetJaccardDistance(b, a),
            test::MergeJaccardDistance(late, early));
}

TEST(FPrimeTest, DegenerateParameters) {
  EXPECT_DOUBLE_EQ(FPrime(1, 1, 1, 0.5, 10, 1), 0.0);  // k = 1
  // N = 0 (supp_q or supp_~q is 0): the confidence term is dropped but the
  // diversity term still ranks pairs — 2λ/(k-1)·diff = 2·0.5/1·1.
  EXPECT_DOUBLE_EQ(FPrime(1, 1, 1, 0.5, 0, 2), 1.0);
  // Infinite confidence (trivial logic rule) must not poison F' with
  // NaN/inf; λ = 1 is the 0·inf = NaN corner.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(FPrime(inf, 1, 0.5, 1.0, 10, 2), 1.0);
  EXPECT_TRUE(std::isfinite(FPrime(inf, 1, 0.5, 0.5, 10, 2)));
}

TEST(ObjectiveFTest, DegenerateNormalizerAndInfiniteConf) {
  std::vector<NodeId> a{1, 2, 3};
  std::vector<NodeId> b{4, 5, 6};
  std::vector<double> confs{1.0, 2.0};
  std::vector<const std::vector<NodeId>*> sets{&a, &b};
  // N = 0: confidence term dropped, diversity term kept (diff = 1).
  EXPECT_DOUBLE_EQ(ObjectiveF(confs, sets, 0.5, 0, 2), 1.0);
  // An infinite confidence in the pool must not make F NaN.
  std::vector<double> inf_confs{std::numeric_limits<double>::infinity(), 2.0};
  EXPECT_TRUE(std::isfinite(ObjectiveF(inf_confs, sets, 0.5, 10, 2)));
  EXPECT_TRUE(std::isfinite(ObjectiveF(inf_confs, sets, 1.0, 10, 2)));
}

TEST(ObjectiveFTest, LambdaExtremes) {
  std::vector<NodeId> a{1, 2, 3};
  std::vector<NodeId> b{4, 5, 6};
  std::vector<double> confs{1.0, 2.0};
  std::vector<const std::vector<NodeId>*> sets{&a, &b};
  // lambda = 0: pure confidence.
  EXPECT_DOUBLE_EQ(ObjectiveF(confs, sets, 0.0, 10, 2), 3.0 / 10);
  // lambda = 1: pure diversity (diff = 1).
  EXPECT_DOUBLE_EQ(ObjectiveF(confs, sets, 1.0, 10, 2), 2.0);
}

}  // namespace
}  // namespace gpar
