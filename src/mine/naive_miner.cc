#include "mine/naive_miner.h"

#include <algorithm>
#include <map>
#include <string>

#include "graph/neighborhood.h"
#include "match/matcher.h"
#include "mine/levelwise.h"
#include "pattern/automorphism.h"
#include "pattern/pattern_ops.h"
#include "rule/metrics.h"

namespace gpar {

Result<NaiveMineResult> NaiveMine(const Graph& g, const Predicate& q,
                                  const DmineOptions& options) {
  NaiveMineResult result;
  VF2Matcher matcher(g);
  QStats stats = ComputeQStats(matcher, q);
  if (stats.supp_q == 0) return result;
  const double n_norm = static_cast<double>(stats.supp_q) *
                        static_cast<double>(stats.supp_qbar);

  std::vector<EdgePatternStat> seeds =
      FrequentEdgePatterns(g, options.seed_edge_limit);

  Pattern base;
  {
    PNodeId x = base.AddNode(q.x_label);
    PNodeId y = base.AddNode(q.y_label);
    base.set_x(x);
    base.set_y(y);
  }
  std::vector<Pattern> frontier{base};
  std::map<std::string, std::vector<Pattern>> seen;

  for (uint32_t round = 1;
       round <= options.max_pattern_edges && !frontier.empty(); ++round) {
    std::vector<Gpar> candidates;
    for (const Pattern& ant : frontier) {
      std::vector<Gpar> ext = GenerateExtensions(
          ant, q.edge_label, options.d, options.max_pattern_edges, seeds);
      for (Gpar& e : ext) {
        std::string key = IsomorphismBucketKey(e.pr());
        auto& bucket = seen[key];
        bool dup = false;
        for (const Pattern& p : bucket) {
          if (AreIsomorphic(p, e.pr(), /*preserve_designated=*/true)) {
            dup = true;
            break;
          }
        }
        if (dup) continue;
        bucket.push_back(e.pr());
        candidates.push_back(std::move(e));
      }
    }
    if (candidates.size() > options.max_candidates_per_round) {
      candidates.resize(options.max_candidates_per_round);
    }

    frontier.clear();
    for (const Gpar& cand : candidates) {
      auto rule = std::make_shared<MinedRule>();
      rule->rule = cand;
      for (NodeId v : stats.q_matches) {
        if (matcher.ExistsAt(cand.pr(), v)) {
          rule->matches.push_back(v);
          ++rule->supp;
          ++rule->usupp;  // supp itself is the sound extension bound
          rule->extendable = true;
        }
      }
      for (NodeId v : stats.qbar_nodes) {
        if (matcher.ExistsAt(cand.antecedent(), v)) ++rule->supp_qqbar;
      }
      std::sort(rule->matches.begin(), rule->matches.end());
      if (rule->supp < options.sigma) continue;
      if (rule->supp_qqbar == 0) continue;  // trivial logic rule
      rule->conf = BayesFactorConf(rule->supp, stats.supp_qbar,
                                   rule->supp_qqbar, stats.supp_q);
      if (rule->extendable &&
          rule->rule.antecedent().num_edges() < options.max_pattern_edges) {
        frontier.push_back(rule->rule.antecedent());
      }
      result.all_rules.push_back(std::move(rule));
    }
  }

  DiversifiedTopK top =
      DiversifyPool(result.all_rules, options.k, options.lambda, n_norm);
  result.topk = std::move(top.topk);
  result.objective = top.objective;
  return result;
}

}  // namespace gpar
