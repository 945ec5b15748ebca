#include "rule/metrics.h"

#include <algorithm>
#include <unordered_set>

namespace gpar {

QStats ComputeQStats(VF2Matcher& m, const Predicate& q) {
  QStats stats;
  const Graph& g = m.graph();
  Pattern pq = q.ToPattern();
  stats.q_matches = m.Images(pq, pq.x());
  std::sort(stats.q_matches.begin(), stats.q_matches.end());
  stats.supp_q = stats.q_matches.size();

  for (NodeId v : g.nodes_with_label(q.x_label)) {
    if (!g.HasOutLabel(v, q.edge_label)) continue;  // unknown under LCWA
    if (std::binary_search(stats.q_matches.begin(), stats.q_matches.end(),
                           v)) {
      continue;  // positive
    }
    stats.qbar_nodes.push_back(v);
  }
  std::sort(stats.qbar_nodes.begin(), stats.qbar_nodes.end());
  stats.supp_qbar = stats.qbar_nodes.size();
  return stats;
}

LcwaCase ClassifyLcwa(const Graph& g, const Predicate& q, NodeId v,
                      const QStats& stats) {
  if (std::binary_search(stats.q_matches.begin(), stats.q_matches.end(), v)) {
    return LcwaCase::kPositive;
  }
  if (g.HasOutLabel(v, q.edge_label)) return LcwaCase::kNegative;
  return LcwaCase::kUnknown;
}

double BayesFactorConf(uint64_t supp_r, uint64_t supp_qbar,
                       uint64_t supp_qqbar, uint64_t supp_q) {
  // "Fixed under incompatibility" [26, 31]: a rule with no support has
  // confidence 0 regardless of the denominator.
  if (supp_r == 0) return 0;
  if (supp_qqbar == 0 || supp_q == 0) {
    return std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(supp_r) * static_cast<double>(supp_qbar) /
         (static_cast<double>(supp_qqbar) * static_cast<double>(supp_q));
}

GparEval EvaluateGpar(VF2Matcher& m, const Gpar& r, const QStats& stats,
                         const EvalOptions& options) {
  GparEval eval;
  eval.trivial_no_q = stats.supp_q == 0;

  // P_R matches: P_R contains the consequent edge, so every x-match of P_R
  // is an x-match of P_q; probing only q_matches is exact, not a heuristic.
  for (NodeId v : stats.q_matches) {
    if (m.ExistsAt(r.pr(), v)) eval.pr_matches.push_back(v);
  }
  std::sort(eval.pr_matches.begin(), eval.pr_matches.end());
  eval.supp_r = eval.pr_matches.size();

  // Q~q: antecedent matches among the ~q ("negative") pool.
  for (NodeId v : stats.qbar_nodes) {
    if (m.ExistsAt(r.antecedent(), v)) ++eval.supp_qqbar;
  }
  eval.trivial_logic_rule = eval.supp_qqbar == 0;

  eval.conf =
      BayesFactorConf(eval.supp_r, stats.supp_qbar, eval.supp_qqbar,
                      stats.supp_q);
  eval.pca_conf = eval.supp_qqbar == 0
                      ? std::numeric_limits<double>::infinity()
                      : static_cast<double>(eval.supp_r) /
                            static_cast<double>(eval.supp_qqbar);

  if (options.compute_antecedent_images) {
    eval.antecedent_matches = m.Images(r.antecedent(), r.antecedent().x());
    std::sort(eval.antecedent_matches.begin(), eval.antecedent_matches.end());
    eval.supp_q_ant = eval.antecedent_matches.size();
    eval.conventional_conf =
        eval.supp_q_ant == 0
            ? 0
            : static_cast<double>(eval.supp_r) /
                  static_cast<double>(eval.supp_q_ant);
  }
  return eval;
}

uint64_t MinImageSupport(VF2Matcher& m, const Pattern& p,
                            uint64_t embedding_cap) {
  // The callback sees the multiplicity-expanded pattern; minimum image
  // support is computed over its nodes.
  std::vector<std::unordered_set<NodeId>> images;
  m.Enumerate(
      p, {},
      [&](std::span<const NodeId> mapping) {
        if (images.empty()) images.resize(mapping.size());
        for (size_t i = 0; i < mapping.size(); ++i) {
          images[i].insert(mapping[i]);
        }
        return true;
      },
      embedding_cap);
  if (images.empty()) return 0;
  uint64_t min_image = std::numeric_limits<uint64_t>::max();
  for (const auto& s : images) {
    min_image = std::min<uint64_t>(min_image, s.size());
  }
  return min_image;
}

double ImageBasedConf(VF2Matcher& m, const Gpar& r, const QStats& stats,
                         uint64_t supp_qqbar, uint64_t embedding_cap) {
  uint64_t isupp_r = MinImageSupport(m, r.pr(), embedding_cap);
  Pattern pq = r.predicate().ToPattern();
  uint64_t isupp_q = MinImageSupport(m, pq, embedding_cap);
  return BayesFactorConf(isupp_r, stats.supp_qbar, supp_qqbar, isupp_q);
}

}  // namespace gpar
