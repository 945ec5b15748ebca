// Experiment E2b — the Exp-2 precision table: cross-validated prediction
// precision of GPARs ranked by the paper's BF/LCWA conf vs PCA confidence
// vs image-based confidence.
//
// Protocol (following the paper / [17]): split the Pokec-like graph into a
// training half F1 and a validation half F2 (random person split, items
// kept in both); mine the rule pool on F1; rank it by each metric; report
// prec(R) = supp(R, F2) / supp(Q, F2) averaged over the top 10/30/60.
//
// Paper shape to reproduce: conf outranks PCAconf and Iconf at every k
// (paper: 0.423/0.388/0.381 for conf vs ~0.27 for the others).

#include <algorithm>
#include <cstdio>
#include <map>
#include <tuple>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "graph/graph_builder.h"
#include "match/matcher.h"
#include "mine/dmine.h"
#include "mine/naive_miner.h"
#include "rule/metrics.h"

namespace gpar::bench {
namespace {

/// Splits persons (nodes labeled `person`) into two halves; each half is
/// the subgraph induced by its persons plus all non-person nodes.
std::pair<Graph, Graph> SplitGraph(const Graph& g, LabelId person,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> half1, half2;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.node_label(v) != person) {
      half1.push_back(v);
      half2.push_back(v);
    } else if (rng.Bernoulli(0.5)) {
      half1.push_back(v);
    } else {
      half2.push_back(v);
    }
  }
  auto build = [&](const std::vector<NodeId>& nodes) {
    GraphBuilder b(g.labels_ptr());
    std::vector<NodeId> to_local(g.num_nodes(), kInvalidNode);
    for (NodeId v : nodes) to_local[v] = b.AddNode(g.node_label(v));
    for (NodeId v : nodes) {
      for (const AdjEntry& e : g.out_edges(v)) {
        if (to_local[e.other] != kInvalidNode) {
          b.AddEdgeUnchecked(to_local[v], e.label, to_local[e.other]);
        }
      }
    }
    return std::move(b).Build();
  };
  return {build(half1), build(half2)};
}

struct Ranked {
  const MinedRule* rule;
  double key;
};

/// QStats on the validation half, cached per predicate.
using StatsCache = std::map<std::tuple<LabelId, LabelId, LabelId>, QStats>;

const QStats& ValidationStats(VF2Matcher& m2, const Predicate& q,
                                 StatsCache* cache) {
  auto key = std::make_tuple(q.x_label, q.edge_label, q.y_label);
  auto it = cache->find(key);
  if (it == cache->end()) {
    it = cache->emplace(key, ComputeQStats(m2, q)).first;
  }
  return it->second;
}

double AvgPrecision(const std::vector<Ranked>& ranked, size_t top_k,
                    VF2Matcher& m2, StatsCache* cache) {
  double sum = 0;
  size_t used = 0;
  for (size_t i = 0; i < ranked.size() && used < top_k; ++i) {
    const Gpar& r = ranked[i].rule->rule;
    const QStats& stats2 = ValidationStats(m2, r.predicate(), cache);
    GparEval eval = EvaluateGpar(m2, r, stats2);
    if (eval.supp_q_ant == 0) continue;
    sum += static_cast<double>(eval.supp_r) /
           static_cast<double>(eval.supp_q_ant);
    ++used;
  }
  return used > 0 ? sum / static_cast<double>(used) : 0;
}

}  // namespace
}  // namespace gpar::bench

int main() {
  using namespace gpar;
  using namespace gpar::bench;
  const uint32_t scale = Scale();

  Graph g = MakePokecLike(scale, /*seed=*/4242);
  LabelId person = g.labels().Lookup("user");
  auto [f1, f2] = SplitGraph(g, person, 99);
  std::printf("train |G| = %zu, validate |G| = %zu\n", f1.size(), f2.size());

  // Pool of rules mined on F1 over 5 predicates, as in the paper's setup
  // (lambda = 0: pure relevance). The BF-vs-PCA gap comes from how the
  // metrics weigh rules *across* predicates: within one predicate both
  // rank identically (they differ by the constant supp(~q)/supp(q)).
  std::vector<Predicate> predicates;
  for (const char* edge :
       {"like_music", "like_book", "does_sport", "watches", "member_of"}) {
    predicates.push_back(PickPredicate(f1, edge));
  }

  std::vector<std::shared_ptr<MinedRule>> pool;
  VF2Matcher m1(f1);
  std::vector<QStats> stats1;
  for (const Predicate& q : predicates) {
    DmineOptions opt;
    opt.k = 10;
    opt.d = 2;
    opt.sigma = 3 * scale;
    opt.lambda = 0;
    opt.max_pattern_edges = 3;
    opt.seed_edge_limit = 10;
    opt.max_candidates_per_round = 100;
    auto mined = NaiveMine(f1, q, opt);
    if (!mined.ok()) continue;
    for (const auto& r : mined->all_rules) pool.push_back(r);
    stats1.push_back(ComputeQStats(m1, q));
  }
  std::printf("pool: %zu rules across %zu predicates\n", pool.size(),
              predicates.size());

  // Rank the pool by each metric.
  auto make_ranking = [&](auto key_fn) {
    std::vector<Ranked> out;
    for (const auto& r : pool) out.push_back({r.get(), key_fn(*r)});
    std::stable_sort(out.begin(), out.end(),
                     [](const Ranked& a, const Ranked& b) {
                       return a.key > b.key;
                     });
    return out;
  };

  auto by_conf = make_ranking([](const MinedRule& r) { return r.conf; });
  auto by_pca = make_ranking([](const MinedRule& r) {
    return r.supp_qqbar == 0 ? 0.0
                             : static_cast<double>(r.supp) /
                                   static_cast<double>(r.supp_qqbar);
  });
  // Iconf: recompute with minimum-image supports on F1.
  auto by_iconf = make_ranking([&](const MinedRule& r) {
    QStats stats = ComputeQStats(m1, r.rule.predicate());
    return ImageBasedConf(m1, r.rule, stats, r.supp_qqbar, 20000);
  });

  VF2Matcher m2(f2);
  StatsCache cache;
  PrintHeader("Exp-2 prediction precision (Pokec-like split)",
              {"metric", "top 10", "top 30", "top 60"});
  struct Row {
    const char* name;
    const std::vector<Ranked>* ranking;
  };
  for (const Row& row : {Row{"PCAconf", &by_pca}, Row{"Iconf", &by_iconf},
                         Row{"conf", &by_conf}}) {
    PrintCell(std::string(row.name));
    for (size_t k : {10u, 30u, 60u}) {
      PrintCell(AvgPrecision(*row.ranking, k, m2, &cache));
    }
    EndRow();
  }
  std::printf(
      "prec(R) = supp(R, F2) / supp(Q, F2): correctly predicted customers\n"
      "among antecedent matches in held-out data. Expected shape: conf >\n"
      "PCAconf, Iconf at every k (paper: 0.42/0.39/0.38 vs ~0.27).\n");
  return 0;
}
