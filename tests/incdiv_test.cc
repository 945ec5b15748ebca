// Tests incDiv and the Lemma-3 reduction rules against the hand-computable
// rule universe of the paper's Example 9 (rules R5-R8 over G1).

#include "mine/inc_div.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "graph/paper_graphs.h"
#include "match/matcher.h"
#include "mine/reduction.h"
#include "rule/diversity.h"
#include "rule/metrics.h"

namespace gpar {
namespace {

std::shared_ptr<MinedRule> MakeRule(const Gpar& g, VF2Matcher& m,
                                       const QStats& stats) {
  auto r = std::make_shared<MinedRule>();
  r->rule = g;
  GparEval eval = EvaluateGpar(m, g, stats, {.compute_antecedent_images = false});
  r->supp = eval.supp_r;
  r->supp_qqbar = eval.supp_qqbar;
  r->conf = eval.conf;
  r->matches = eval.pr_matches;
  r->extendable = true;
  return r;
}

class IncDivTest : public ::testing::Test {
 protected:
  IncDivTest() : g1_(MakePaperG1()), m_(g1_.graph) {
    stats_ = ComputeQStats(m_, g1_.q);
    n_norm_ = static_cast<double>(stats_.supp_q * stats_.supp_qbar);
  }
  PaperG1 g1_;
  VF2Matcher m_;
  QStats stats_;
  double n_norm_;
};

TEST_F(IncDivTest, Example9RoundOne) {
  // Round 1: ΔE = {R5, R6}; queue fills with the pair (R5, R6), F' = 0.92.
  IncDiv inc(/*k=*/2, /*lambda=*/0.5, n_norm_);
  auto r5 = MakeRule(g1_.r5, m_, stats_);
  auto r6 = MakeRule(g1_.r6, m_, stats_);
  std::vector<std::shared_ptr<MinedRule>> delta{r5, r6};
  std::vector<std::shared_ptr<MinedRule>> sigma = delta;
  inc.AddRound(delta, sigma);

  EXPECT_NEAR(inc.MinPairFPrime(), 0.92, 1e-12);
  auto topk = inc.TopK();
  ASSERT_EQ(topk.size(), 2u);
  EXPECT_TRUE(inc.InQueue(r5.get()));
  EXPECT_TRUE(inc.InQueue(r6.get()));
}

TEST_F(IncDivTest, Example9RoundTwoReplacesTheQueuePair) {
  // Round 2: ΔE = {R7, R8}. Exactly the paper's trace: members of the
  // current queue (R5, R6) are not available as partners (queue pairs are
  // pairwise disjoint), so R7's best partner is R8 with F'(R7, R8) = 1.08 >
  // F'(R5, R6) = 0.92 — the pair is replaced and L_k becomes {R7, R8}.
  IncDiv inc(2, 0.5, n_norm_);
  auto r5 = MakeRule(g1_.r5, m_, stats_);
  auto r6 = MakeRule(g1_.r6, m_, stats_);
  auto r7 = MakeRule(g1_.r7, m_, stats_);
  auto r8 = MakeRule(g1_.r8, m_, stats_);

  std::vector<std::shared_ptr<MinedRule>> sigma{r5, r6};
  inc.AddRound({r5, r6}, sigma);
  ASSERT_NEAR(inc.MinPairFPrime(), 0.92, 1e-12);

  sigma.push_back(r7);
  sigma.push_back(r8);
  inc.AddRound({r7, r8}, sigma);

  EXPECT_FALSE(inc.InQueue(r5.get()));
  EXPECT_FALSE(inc.InQueue(r6.get()));
  EXPECT_TRUE(inc.InQueue(r7.get()));
  EXPECT_TRUE(inc.InQueue(r8.get()));
  EXPECT_NEAR(inc.MinPairFPrime(), 1.08, 1e-12);

  // Objective F(L_k) = F({R7, R8}) = 1.08, the paper's Example 8 value.
  EXPECT_NEAR(inc.Objective(), 1.08, 1e-12);
}

TEST_F(IncDivTest, QueueNotFullMeansNoPruningThreshold) {
  IncDiv inc(6, 0.5, n_norm_);  // needs 3 pairs
  auto r5 = MakeRule(g1_.r5, m_, stats_);
  auto r6 = MakeRule(g1_.r6, m_, stats_);
  std::vector<std::shared_ptr<MinedRule>> sigma{r5, r6};
  inc.AddRound({r5, r6}, sigma);
  EXPECT_EQ(inc.MinPairFPrime(), -std::numeric_limits<double>::infinity());
}

TEST_F(IncDivTest, DegenerateNormalizerStillRanksByDiversity) {
  // N = 0 (no ~q pool): the confidence term of F' vanishes, but the queue
  // must still fill and rank pairs by the diversity term — and everything
  // stays finite (the old FPrime returned a flat 0 here, collapsing the
  // ranking; worse, inf confidences could surface NaN).
  IncDiv inc(2, 0.5, /*n_norm=*/0.0);
  auto r5 = MakeRule(g1_.r5, m_, stats_);
  auto r6 = MakeRule(g1_.r6, m_, stats_);
  auto r8 = MakeRule(g1_.r8, m_, stats_);
  std::vector<std::shared_ptr<MinedRule>> sigma{r5, r6, r8};
  inc.AddRound(sigma, sigma);

  auto topk = inc.TopK();
  ASSERT_EQ(topk.size(), 2u);
  EXPECT_TRUE(std::isfinite(inc.MinPairFPrime()));
  EXPECT_TRUE(std::isfinite(inc.Objective()));
  // The max-diff pair wins: R5 ({c1..c4}) and R8 ({c6}) are disjoint
  // (diff = 1), beating any pair overlapping on matches.
  double diff = JaccardDistance(topk[0]->matches, topk[1]->matches);
  EXPECT_DOUBLE_EQ(diff, 1.0);
}

TEST_F(IncDivTest, PrunedRulesAreNotPaired) {
  IncDiv inc(2, 0.5, n_norm_);
  auto r5 = MakeRule(g1_.r5, m_, stats_);
  auto r6 = MakeRule(g1_.r6, m_, stats_);
  r5->pruned = true;
  auto r8 = MakeRule(g1_.r8, m_, stats_);
  std::vector<std::shared_ptr<MinedRule>> sigma{r5, r6, r8};
  inc.AddRound({r5, r6, r8}, sigma);
  EXPECT_FALSE(inc.InQueue(r5.get()));
}

TEST_F(IncDivTest, FullDiversifyMatchesGreedyChoice) {
  auto r5 = MakeRule(g1_.r5, m_, stats_);
  auto r6 = MakeRule(g1_.r6, m_, stats_);
  auto r7 = MakeRule(g1_.r7, m_, stats_);
  auto r8 = MakeRule(g1_.r8, m_, stats_);
  std::vector<std::shared_ptr<MinedRule>> pool{r5, r6, r7, r8};
  auto topk = FullDiversify(pool, 2, 0.5, n_norm_);
  ASSERT_EQ(topk.size(), 2u);
  // Best pair by F' over the pool: (R5, R6)? F'(R5,R6)=0.92;
  // (R5,R8): conf 0.8+0.2, diff({c1..c4},{c6})=1 -> 0.1+1=1.1;
  // (R7,R6): 1.1; (R5,R7): low diff; (R7,R8): 1.08; (R6,R8) diff({c4,c6},{c6})=0.5 -> 0.56.
  // Greedy picks one of the 1.1 pairs.
  double conf_sum = topk[0]->conf + topk[1]->conf;
  double diff = JaccardDistance(topk[0]->matches, topk[1]->matches);
  EXPECT_NEAR(FPrime(topk[0]->conf, topk[1]->conf, diff, 0.5, n_norm_, 2),
              1.1, 1e-12);
  (void)conf_sum;
}

class ReductionTest : public IncDivTest {};

TEST_F(ReductionTest, UConfPlusAssembly) {
  // Uconf+(R) = Usupp * supp(~q) / supp(q).
  EXPECT_DOUBLE_EQ(UConfPlus(4, 1, 5), 0.8);
  EXPECT_DOUBLE_EQ(UConfPlus(0, 1, 5), 0.0);
  EXPECT_DOUBLE_EQ(UConfPlus(4, 1, 0), 0.0);  // guarded
}

TEST_F(ReductionTest, NoPruningWhileQueueUnfilled) {
  auto r5 = MakeRule(g1_.r5, m_, stats_);
  r5->uconf_plus = 0.1;
  std::vector<std::shared_ptr<MinedRule>> sigma{r5};
  auto stats = ApplyReductionRules(
      sigma, sigma, -std::numeric_limits<double>::infinity(), 0.5, n_norm_, 2,
      [](const MinedRule*) { return false; });
  EXPECT_EQ(stats.pruned_sigma, 0u);
  EXPECT_FALSE(r5->pruned);
}

TEST_F(ReductionTest, HighThresholdPrunesWeakRules) {
  // With lambda = 0 the diversity term vanishes, so the Lemma-3 bound is
  // conf-only and easy to trip.
  auto weak = MakeRule(g1_.r8, m_, stats_);   // conf 0.2
  auto strong = MakeRule(g1_.r5, m_, stats_); // conf 0.8
  weak->uconf_plus = 0.0;
  weak->extendable = true;
  strong->uconf_plus = 0.9;
  strong->extendable = true;
  std::vector<std::shared_ptr<MinedRule>> sigma{weak, strong};
  std::vector<std::shared_ptr<MinedRule>> delta{weak, strong};

  // F'm set above any achievable bound for `weak`:
  // bound(weak) = (1-0)/ (N*(k-1)) * (0.2 + maxUconf+) + 0.
  double fm = 1.0;  // generous
  auto rstats = ApplyReductionRules(sigma, delta, fm, /*lambda=*/0.0, n_norm_,
                                    2, [](const MinedRule*) { return false; });
  EXPECT_TRUE(weak->pruned);
  EXPECT_GT(rstats.pruned_sigma + rstats.pruned_delta, 0u);
}

TEST_F(ReductionTest, QueueMembersAreExempt) {
  auto weak = MakeRule(g1_.r8, m_, stats_);
  weak->uconf_plus = 0;
  std::vector<std::shared_ptr<MinedRule>> sigma{weak};
  ApplyReductionRules(sigma, sigma, 100.0, 0.0, n_norm_, 2,
                      [&](const MinedRule* r) { return r == weak.get(); });
  EXPECT_FALSE(weak->pruned);
}

}  // namespace
}  // namespace gpar
