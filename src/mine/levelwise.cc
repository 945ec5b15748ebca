#include "mine/levelwise.h"

#include <unordered_map>
#include <utility>

#include "graph/stats.h"
#include "mine/inc_div.h"
#include "mine/reduction.h"
#include "parallel/bsp.h"
#include "rule/diversity.h"
#include "rule/metrics.h"

namespace gpar {

Status ValidateMiningOptions(const DmineOptions& options) {
  if (options.k < 2) return Status::InvalidArgument("k must be at least 2");
  if (options.d == 0) return Status::InvalidArgument("d must be at least 1");
  // Negated so that NaN fails too.
  if (!(options.lambda >= 0.0 && options.lambda <= 1.0)) {
    return Status::InvalidArgument("lambda must be a finite value in [0, 1]");
  }
  return Status::OK();
}

DiversifiedTopK DiversifyPool(
    const std::vector<std::shared_ptr<MinedRule>>& pool, uint32_t k,
    double lambda, double n_norm) {
  DiversifiedTopK out;
  out.topk = FullDiversify(pool, k, lambda, n_norm);
  std::vector<double> confs;
  std::vector<const std::vector<NodeId>*> sets;
  for (const auto& r : out.topk) {
    confs.push_back(r->conf);
    sets.push_back(&r->matches);
  }
  out.objective = ObjectiveF(confs, sets, lambda, n_norm, k);
  return out;
}

void LevelwiseEvaluator::Generate(
    const Pattern& base, const std::vector<std::shared_ptr<MinedRule>>& parents,
    const Extender& extend, std::vector<Gpar>* fresh,
    std::vector<size_t>* fresh_parent) {
  auto generate_from = [&](const Pattern& ant, size_t parent_idx) {
    for (Gpar& e : extend(ant)) {
      fresh->push_back(std::move(e));
      fresh_parent->push_back(parent_idx);
    }
  };
  if (parents.empty()) {
    generate_from(base, kRootParent);
    return;
  }
  for (size_t pi = 0; pi < parents.size(); ++pi) {
    generate_from(parents[pi]->rule.antecedent(), pi);
  }
}

namespace {

// A parent's per-fragment match sets serve one round: its children's
// pools. Σ keeps the rule itself alive for diversification.
void ReleaseLineage(MinedRule* r) {
  r->frag_pr_centers = {};
  r->frag_ant_centers = {};
}

}  // namespace

LevelwiseResult RunLevelwise(const Graph& g, const Predicate& q,
                             const DmineOptions& options,
                             LevelwiseEvaluator& ev, DmineStats* stats) {
  LevelwiseResult out;
  // The coordinator plans each pattern once; every matcher reads the store.
  SearchPlanStore plans(g);
  const Pattern pq = q.ToPattern();
  ev.Coordinator([&] {
    PNodeId px = pq.x();
    plans.Prepare(pq, {&px, 1});
  });

  // The q / ~q pools "never change and hence are derived once for all".
  const LevelwisePools pools = ev.EvaluatePools(plans);
  stats->supp_q = pools.supp_q;
  stats->supp_qbar = pools.supp_qbar;
  stats->plans_prepared = plans.patterns_planned();
  // No q pool: q(x, y) names no one in G. No ~q pool: every rule would be
  // a trivial logic rule (supp(Q~q) = 0). Returning keeps n_norm = 0 away
  // from the objective's divisions.
  if (pools.supp_q == 0 || pools.supp_qbar == 0) return out;
  const double n_norm =
      static_cast<double>(pools.supp_q) * static_cast<double>(pools.supp_qbar);

  const std::vector<EdgePatternStat> seeds =
      FrequentEdgePatterns(g, options.seed_edge_limit);
  const Extender extend = [&](const Pattern& ant) {
    return GenerateExtensions(ant, q.edge_label, options.d,
                              options.max_pattern_edges, seeds);
  };
  // Round 1 extends the bare predicate q(x, y): an antecedent with just the
  // designated nodes and no edges.
  Pattern base;
  base.set_x(base.AddNode(q.x_label));
  base.set_y(base.AddNode(q.y_label));
  // Antecedent components without x can match anywhere in G: checked once
  // per candidate on the whole graph.
  VF2Matcher global_matcher(g);

  IncDiv incdiv(options.k, options.lambda, n_norm);
  std::vector<std::shared_ptr<MinedRule>> sigma;  // Σ
  std::unordered_map<uint64_t, std::vector<Pattern>> seen_buckets;
  std::vector<std::shared_ptr<MinedRule>> parents;  // M

  for (uint32_t round = 1;
       round <= options.max_pattern_edges && (round == 1 || !parents.empty());
       ++round) {
    std::vector<Gpar> fresh;
    std::vector<size_t> fresh_parent;
    ev.Generate(base, parents, extend, &fresh, &fresh_parent);
    stats->candidates_generated += fresh.size();

    std::vector<Gpar> candidates;
    std::vector<size_t> cand_parent;  // per candidate: index into `parents`
    std::vector<char> other_ok;
    ev.Coordinator([&] {
      const double start = ThreadCpuSeconds();
      const std::vector<size_t> kept = DedupCandidates(
          fresh, options.max_candidates_per_round, &seen_buckets,
          options.enable_bisim_prefilter, stats);
      candidates.reserve(kept.size());
      cand_parent.reserve(kept.size());
      for (size_t idx : kept) {
        candidates.push_back(std::move(fresh[idx]));
        cand_parent.push_back(fresh_parent[idx]);
      }
      stats->candidates_verified += candidates.size();
      other_ok.assign(candidates.size(), 1);
      for (size_t ci = 0; ci < candidates.size(); ++ci) {
        for (const Pattern& comp : candidates[ci].other_components()) {
          ++out.global_exists_calls;
          if (!global_matcher.Exists(comp)) {
            other_ok[ci] = 0;
            break;
          }
        }
      }
      stats->coordinator_merge_seconds += ThreadCpuSeconds() - start;
    });
    if (candidates.empty()) break;

    // Matchers probe P_R and the x-component, both anchored at x.
    ev.Coordinator([&] {
      for (const Gpar& r : candidates) {
        PNodeId prx = r.pr().x();
        plans.Prepare(r.pr(), {&prx, 1});
        PNodeId qx = r.x_component().x();
        plans.Prepare(r.x_component(), {&qx, 1});
      }
    });

    std::vector<std::shared_ptr<MinedRule>> evaluated =
        ev.Evaluate(candidates, cand_parent, other_ok, parents);

    ev.Coordinator([&] {
      std::vector<std::shared_ptr<MinedRule>> delta;  // ΔE
      for (std::shared_ptr<MinedRule>& rule : evaluated) {
        rule->uconf_plus =
            UConfPlus(rule->usupp, pools.supp_qbar, pools.supp_q);
        if (rule->supp < options.sigma) continue;
        if (rule->supp_qqbar == 0) {
          // Trivial "logic rule": holds on all of Q(x, G); discarded per the
          // paper's trivial-GPAR handling.
          ++stats->trivial_discarded;
          continue;
        }
        rule->conf = BayesFactorConf(rule->supp, pools.supp_qbar,
                                     rule->supp_qqbar, pools.supp_q);
        delta.push_back(std::move(rule));
      }
      stats->accepted += delta.size();
      sigma.insert(sigma.end(), delta.begin(), delta.end());

      if (options.enable_incremental_div) {
        incdiv.AddRound(delta, sigma);
        if (options.enable_reduction_rules) {
          ReductionStats rs = ApplyReductionRules(
              sigma, delta, incdiv.MinPairFPrime(), options.lambda, n_norm,
              options.k,
              [&](const MinedRule* r) { return incdiv.InQueue(r); });
          stats->pruned_by_reduction += rs.pruned_sigma + rs.pruned_delta;
        }
      } else {
        // DMineno recomputes the diversified top-k from scratch every round
        // instead of maintaining it incrementally — the cost the paper's
        // Exp-1 ablation measures.
        out.top = DiversifyPool(sigma, options.k, options.lambda, n_norm);
      }

      // Next round's M.
      for (const auto& p : parents) ReleaseLineage(p.get());
      parents.clear();
      for (const auto& r : delta) {
        if (!r->extendable || r->pruned ||
            r->rule.antecedent().num_edges() >= options.max_pattern_edges) {
          ReleaseLineage(r.get());
          continue;
        }
        parents.push_back(r);
      }
    });
  }
  for (const auto& p : parents) ReleaseLineage(p.get());

  if (options.enable_incremental_div) {
    ev.Coordinator([&] {
      out.top.topk = incdiv.TopK();
      out.top.objective = incdiv.Objective();
    });
  }
  stats->plans_prepared = plans.patterns_planned();
  return out;
}

}  // namespace gpar
