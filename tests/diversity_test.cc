// End-to-end identity of the diversification kernel: on seeded generator
// graphs, the F(L_k) that Dmine, DMineno and the rule maintainer report
// equals F(L_k) recomputed from their top-k with the sorted-merge oracle,
// and the search work (matcher probes, verified candidates) equals the
// recorded values, so diversification changes no search decision.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ios>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "graph/generator.h"
#include "graph/stats.h"
#include "maintain/rule_maintainer.h"
#include "mine/dmine.h"
#include "test_util.h"

namespace gpar {
namespace {

/// F(L_k) of `topk` in ObjectiveF's exact operation order, with every diff
/// taken by the merge oracle.
double OracleObjective(const std::vector<std::shared_ptr<MinedRule>>& topk,
                       double lambda, double n_norm, uint32_t k) {
  double conf_sum = 0;
  for (const auto& r : topk) conf_sum += r->conf;
  double diff_sum = 0;
  for (size_t i = 0; i < topk.size(); ++i) {
    for (size_t j = i + 1; j < topk.size(); ++j) {
      diff_sum +=
          test::MergeJaccardDistance(topk[i]->matches, topk[j]->matches);
    }
  }
  double conf_term = 0;
  if (n_norm > 0 && lambda < 1.0 && std::isfinite(conf_sum)) {
    conf_term = (1.0 - lambda) * conf_sum / n_norm;
  }
  double div_term = k > 1 ? 2.0 * lambda / (k - 1) * diff_sum : 0;
  return conf_term + div_term;
}

/// Search work and objective of one run, as recorded per seed.
struct Recorded {
  uint64_t exists_calls;
  uint64_t candidates;
  double objective;
};

struct SeedRecord {
  uint64_t seed;
  Recorded dmine;
  Recorded dmine_no;
  Recorded maintain;
};

// Recorded from the sorted-merge diversification the bitset kernel
// replaced: {exists_calls, candidates verified, objective} per run.
// clang-format off
constexpr SeedRecord kRecords[] = {
    {1,
     {15613, 571, 0x1.de7db7bcafc35p+0},
     {15613, 571, 0x1.0b02e709de54cp+1},
     {16054, 571, 0x1.de7db7bcafc35p+0}},
    {2,
     {13262, 565, 0x1.c12p+0},
     {13262, 565, 0x1.c15p+0},
     {13700, 565, 0x1.c12p+0}},
    {3,
     {16839, 623, 0x1.226211159cf05p+1},
     {16550, 623, 0x1.2d154202e0835p+1},
     {17300, 623, 0x1.226211159cf05p+1}},
    {4,
     {12296, 623, 0x1.26152832c6e04p+1},
     {12296, 623, 0x1.18f89e593c523p+1},
     {12751, 623, 0x1.26152832c6e04p+1}},
    {5,
     {14410, 560, 0x1.07533e5877d0ap+1},
     {14410, 560, 0x1.f951275b9a4bfp+0},
     {14838, 560, 0x1.07533e5877d0ap+1}},
};
// clang-format on

void PrintTo(const SeedRecord& rec, std::ostream* os) {
  *os << "seed " << rec.seed;
}

DmineOptions MiningOptions() {
  DmineOptions opt;
  opt.num_workers = 3;
  opt.k = 5;
  opt.d = 2;
  opt.sigma = 2;
  opt.max_pattern_edges = 3;
  opt.seed_edge_limit = 6;
  return opt;
}

void ExpectRecorded(const char* what, uint64_t seed, const Recorded& want,
                    uint64_t exists_calls, uint64_t candidates,
                    double objective) {
  EXPECT_EQ(exists_calls, want.exists_calls) << what << " seed " << seed;
  EXPECT_EQ(candidates, want.candidates) << what << " seed " << seed;
  EXPECT_EQ(objective, want.objective)
      << what << " seed " << seed << ": " << std::hexfloat << objective;
}

class DiversifyIdentity : public ::testing::TestWithParam<SeedRecord> {};

INSTANTIATE_TEST_SUITE_P(
    Seeds, DiversifyIdentity, ::testing::ValuesIn(kRecords),
    [](const ::testing::TestParamInfo<SeedRecord>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

TEST_P(DiversifyIdentity, ObjectiveAndSearchWorkMatchMergeOracle) {
  const SeedRecord& rec = GetParam();
  auto g = std::make_shared<const Graph>(
      MakeSynthetic(600, 1800, 25, rec.seed));
  auto freq = FrequentEdgePatterns(*g, 1);
  ASSERT_FALSE(freq.empty());
  const Predicate q{freq[0].src_label, freq[0].edge_label, freq[0].dst_label};
  const DmineOptions opt = MiningOptions();

  auto dmine = Dmine(*g, q, opt);
  ASSERT_TRUE(dmine.ok()) << dmine.status();
  ASSERT_FALSE(dmine->topk.empty()) << "seed " << rec.seed;
  const double n_norm = static_cast<double>(dmine->stats.supp_q) *
                        static_cast<double>(dmine->stats.supp_qbar);
  EXPECT_EQ(dmine->objective,
            OracleObjective(dmine->topk, opt.lambda, n_norm, opt.k));
  ExpectRecorded("Dmine", rec.seed, rec.dmine, dmine->stats.exists_calls,
                 dmine->stats.candidates_verified, dmine->objective);

  auto no = Dmine(*g, q, DmineNoOptions(opt));
  ASSERT_TRUE(no.ok()) << no.status();
  EXPECT_EQ(no->objective,
            OracleObjective(no->topk, opt.lambda, n_norm, opt.k));
  ExpectRecorded("DMineno", rec.seed, rec.dmine_no, no->stats.exists_calls,
                 no->stats.candidates_verified, no->objective);

  MaintainOptions mo;
  mo.mine = opt;
  auto m = RuleMaintainer::Seed(g, q, mo);
  ASSERT_TRUE(m.ok()) << m.status();
  const double m_norm = static_cast<double>((*m)->supp_q()) *
                        static_cast<double>((*m)->supp_qbar());
  EXPECT_EQ((*m)->objective(),
            OracleObjective((*m)->topk(), opt.lambda, m_norm, opt.k));
  EXPECT_EQ((*m)->objective(), dmine->objective);
  ExpectRecorded("RuleMaintainer::Seed", rec.seed, rec.maintain,
                 (*m)->lifetime_stats().exists_calls,
                 (*m)->lifetime_stats().candidates_evaluated,
                 (*m)->objective());
}

}  // namespace
}  // namespace gpar
