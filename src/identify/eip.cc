#include "identify/eip.h"

#include <algorithm>
#include <memory>

#include "graph/partition.h"
#include "identify/center_evaluator.h"
#include "match/matcher.h"
#include "rule/metrics.h"

namespace gpar {

namespace {

/// Sequential reference: evaluates every rule on the whole graph with the
/// library's metric functions. The oracle the parallel paths must agree
/// with (tests) — and the t(|G|, |Σ|) baseline of Theorem 6.
Result<EipResult> IdentifySequential(const Graph& g,
                                     const std::vector<Gpar>& sigma,
                                     const EipOptions& options) {
  EipResult result;
  VF2Matcher matcher(g);
  QStats stats = ComputeQStats(matcher, sigma.front().predicate());
  result.supp_q = stats.supp_q;
  result.supp_qbar = stats.supp_qbar;

  std::vector<NodeId> entities;
  for (const Gpar& r : sigma) {
    EvalOptions eopt;
    eopt.compute_antecedent_images = !options.require_consequent;
    GparEval eval = EvaluateGpar(matcher, r, stats, eopt);
    result.rule_evals.push_back({eval.supp_r, eval.supp_qqbar, eval.conf});
    if (eval.conf >= options.eta) {
      const auto& members =
          options.require_consequent ? eval.pr_matches : eval.antecedent_matches;
      entities.insert(entities.end(), members.begin(), members.end());
    }
  }
  std::sort(entities.begin(), entities.end());
  entities.erase(std::unique(entities.begin(), entities.end()),
                 entities.end());
  result.entities = std::move(entities);
  return result;
}

}  // namespace

Result<SigmaInfo> ValidateSigma(const std::vector<Gpar>& sigma) {
  if (sigma.empty()) {
    return Status::InvalidArgument("empty GPAR set");
  }
  SigmaInfo info;
  info.q = sigma.front().predicate();
  for (const Gpar& r : sigma) {
    if (!(r.predicate() == info.q)) {
      return Status::InvalidArgument(
          "all GPARs in Sigma must pertain to the same q(x, y)");
    }
    // eval_radius covers both P_R and fragment-local antecedent matching.
    info.d = std::max(info.d, r.eval_radius());
  }
  return info;
}

std::vector<char> OtherComponentsOk(const Graph& g,
                                    const std::vector<Gpar>& sigma) {
  std::vector<char> other_ok(sigma.size(), 1);
  VF2Matcher global_matcher(g);
  for (size_t i = 0; i < sigma.size(); ++i) {
    for (const Pattern& comp : sigma[i].other_components()) {
      if (!global_matcher.Exists(comp)) {
        other_ok[i] = 0;
        break;
      }
    }
  }
  return other_ok;
}

Result<EipResult> IdentifyEntities(const Graph& g,
                                   const std::vector<Gpar>& sigma,
                                   const EipOptions& options) {
  GPAR_ASSIGN_OR_RETURN(SigmaInfo sigma_info, ValidateSigma(sigma));
  const Predicate q = sigma_info.q;
  const uint32_t d = sigma_info.d;
  if (options.eta <= 0) {
    return Status::InvalidArgument("eta must be positive");
  }
  if (options.algorithm == EipAlgorithm::kSequential) {
    return IdentifySequential(g, sigma, options);
  }

  EipResult result;
  BspRuntime bsp(options.num_workers);

  // (1) Partitioning: candidates L = nodes satisfying x's condition; each
  // fragment contains G_d(v_x) for its owned candidates.
  std::vector<NodeId> centers;
  {
    auto span = g.nodes_with_label(q.x_label);
    centers.assign(span.begin(), span.end());
  }
  PartitionOptions popt;
  popt.num_fragments = options.num_workers;
  popt.d = std::max<uint32_t>(d, 1);
  GPAR_ASSIGN_OR_RETURN(Partitioning parts, PartitionGraph(g, centers, popt));

  // Satisfiability of antecedent components not containing x (empty for
  // connected antecedents).
  std::vector<char> other_ok = OtherComponentsOk(g, sigma);

  // (2) Matching: all workers evaluate their owned candidates in parallel.
  struct WorkerOut {
    uint64_t supp_q = 0;
    uint64_t supp_qbar = 0;
    // per rule: owned centers' membership (global ids)
    std::vector<std::vector<NodeId>> pr_members;
    std::vector<std::vector<NodeId>> q_members;
    std::vector<NodeId> qbar_globals;  // owned LCWA negatives, global ids
    EvaluatorWork work;
  };
  std::vector<WorkerOut> outs(options.num_workers);
  const Pattern pq = q.ToPattern();
  const bool need_q_membership = !options.require_consequent;

  bsp.RunRound([&](uint32_t i) {
    const Fragment& frag = parts.fragments[i];
    // Fragments match on the parent CSR restricted by view membership
    // (global ids throughout).
    const GraphView* view = &frag.view;
    WorkerOut& out = outs[i];
    out.pr_members.resize(sigma.size());
    out.q_members.resize(sigma.size());

    std::unique_ptr<CenterEvaluator> evaluator;
    switch (options.algorithm) {
      case EipAlgorithm::kMatch:
        evaluator = MakeMatchEvaluator(g, view, sigma, other_ok);
        break;
      case EipAlgorithm::kMatchc:
        evaluator = MakeMatchcEvaluator(g, view, sigma, other_ok,
                                        options.enumeration_cap);
        break;
      case EipAlgorithm::kDisVf2:
        evaluator = MakeDisVf2Evaluator(g, view, sigma, other_ok,
                                        options.enumeration_cap);
        break;
      case EipAlgorithm::kSequential:
        return;  // handled above
    }

    VF2Matcher base_matcher(g, view);  // for the cheap P_q classification
    std::vector<char> in_pr, in_q;
    for (NodeId global : frag.centers) {
      bool is_q = base_matcher.ExistsAt(pq, global);
      bool is_qbar = !is_q && frag.view.HasOutLabel(global, q.edge_label);
      if (is_q) ++out.supp_q;
      if (is_qbar) {
        ++out.supp_qbar;
        out.qbar_globals.push_back(global);
      }
      evaluator->Evaluate(global, is_q, is_qbar, need_q_membership, &in_pr,
                          &in_q);
      for (size_t ri = 0; ri < sigma.size(); ++ri) {
        if (in_pr[ri]) out.pr_members[ri].push_back(global);
        if (in_q[ri]) out.q_members[ri].push_back(global);
      }
    }
    out.work = evaluator->work();
  });

  // (3) Assembling: global supports and confidences, then the output set.
  bsp.RunCoordinator([&] {
    result.rule_evals.assign(sigma.size(), {});
    for (const WorkerOut& out : outs) {
      result.supp_q += out.supp_q;
      result.supp_qbar += out.supp_qbar;
      result.exists_queries += out.work.exists_queries;
      result.embeddings_enumerated += out.work.embeddings;
    }

    // supp(Q~q) per rule: antecedent matches that are ~q nodes, checked
    // against the global ~q set assembled from the fragments.
    std::vector<NodeId> qbar_nodes;
    for (const WorkerOut& out : outs) {
      qbar_nodes.insert(qbar_nodes.end(), out.qbar_globals.begin(),
                        out.qbar_globals.end());
    }
    std::sort(qbar_nodes.begin(), qbar_nodes.end());

    for (size_t ri = 0; ri < sigma.size(); ++ri) {
      EipRuleEval& ev = result.rule_evals[ri];
      for (const WorkerOut& out : outs) {
        ev.supp_r += out.pr_members[ri].size();
        for (NodeId v : out.q_members[ri]) {
          if (std::binary_search(qbar_nodes.begin(), qbar_nodes.end(), v)) {
            ++ev.supp_qqbar;
          }
        }
      }
      ev.conf = BayesFactorConf(ev.supp_r, result.supp_qbar, ev.supp_qqbar,
                                result.supp_q);
    }

    std::vector<NodeId> entities;
    for (size_t ri = 0; ri < sigma.size(); ++ri) {
      if (result.rule_evals[ri].conf < options.eta) continue;
      for (const WorkerOut& out : outs) {
        const auto& members = options.require_consequent
                                  ? out.pr_members[ri]
                                  : out.q_members[ri];
        entities.insert(entities.end(), members.begin(), members.end());
      }
    }
    std::sort(entities.begin(), entities.end());
    entities.erase(std::unique(entities.begin(), entities.end()),
                   entities.end());
    result.entities = std::move(entities);
  });

  result.times = bsp.FinishTiming();
  return result;
}

}  // namespace gpar
