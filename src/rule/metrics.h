#ifndef GPAR_RULE_METRICS_H_
#define GPAR_RULE_METRICS_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "match/matcher.h"
#include "rule/gpar.h"

namespace gpar {

/// Per-(graph, predicate) statistics (Section 3). These never change for a
/// fixed q(x, y) and are computed once: the paper's DMine derives them "once
/// for all" in its first round.
///
///  * supp(q, G)    = ||P_q(x, G)||: distinct x-matches of the consequent.
///  * supp(~q, G)   = nodes labeled like x that have >= 1 out-edge labeled q
///                    but are NOT in P_q(x, G) (they q-link only to nodes
///                    failing y's condition) — the LCWA "negative" pool.
/// Nodes with x's label and no q-edge at all are LCWA "unknown" and counted
/// nowhere.
struct QStats {
  uint64_t supp_q = 0;
  uint64_t supp_qbar = 0;
  std::vector<NodeId> q_matches;   ///< P_q(x, G), sorted
  std::vector<NodeId> qbar_nodes;  ///< sorted
};

/// Computes QStats with `m` (bound to the graph) for predicate `q`.
QStats ComputeQStats(VF2Matcher& m, const Predicate& q);

/// LCWA classification of a node with x's label (Section 3, Example 7).
enum class LcwaCase { kPositive, kNegative, kUnknown };
LcwaCase ClassifyLcwa(const Graph& g, const Predicate& q, NodeId v,
                      const QStats& stats);

/// Bayes-Factor confidence under LCWA:
///   conf(R, G) = supp(R, G) * supp(~q, G) / (supp(Q~q, G) * supp(q, G)).
/// Returns +infinity for the two trivial cases the paper distinguishes
/// (supp(Q~q) = 0: a logic rule; supp(q) = 0: q names no one).
double BayesFactorConf(uint64_t supp_r, uint64_t supp_qbar,
                       uint64_t supp_qqbar, uint64_t supp_q);

/// Full evaluation of one GPAR on the matcher's graph.
struct GparEval {
  uint64_t supp_r = 0;       ///< supp(R, G) = ||P_R(x, G)||
  uint64_t supp_q_ant = 0;   ///< supp(Q, G) = ||Q(x, G)|| (0 if not computed)
  uint64_t supp_qqbar = 0;   ///< ||Q(x, G) ∩ ~q nodes||
  std::vector<NodeId> pr_matches;          ///< P_R(x, G), sorted
  std::vector<NodeId> antecedent_matches;  ///< Q(x, G), sorted (optional)
  double conf = 0;               ///< BF/LCWA confidence
  double conventional_conf = 0;  ///< supp(R)/supp(Q) (needs antecedent set)
  double pca_conf = 0;           ///< supp(R)/supp(Q~q) per the paper's Exp-2
  bool trivial_logic_rule = false;  ///< supp(Q~q) = 0
  bool trivial_no_q = false;        ///< supp(q) = 0
};

/// Options for `EvaluateGpar`. Computing the full antecedent image set
/// Q(x, G) costs one exists-query per x-labeled node; callers that only
/// need conf can skip it (P_R matches are found among q-matches and Q~q
/// among ~q nodes, both much smaller pools).
struct EvalOptions {
  bool compute_antecedent_images = true;
};

GparEval EvaluateGpar(VF2Matcher& m, const Gpar& r, const QStats& stats,
                         const EvalOptions& options = {});

/// Minimum-image-based support [7]: the smallest, over pattern nodes u, of
/// the number of distinct graph nodes matched to u across all embeddings.
/// Enumerates embeddings up to `embedding_cap` (0 = unlimited).
uint64_t MinImageSupport(VF2Matcher& m, const Pattern& p,
                            uint64_t embedding_cap = 1000000);

/// Image-based confidence (the paper's Exp-2 "Iconf"): conf(R, G) with the
/// pattern supports supp(R) and supp(q) replaced by minimum-image supports.
/// The ~q terms count plain nodes (not pattern matches) and are kept as-is.
double ImageBasedConf(VF2Matcher& m, const Gpar& r, const QStats& stats,
                         uint64_t supp_qqbar, uint64_t embedding_cap = 1000000);

}  // namespace gpar

#endif  // GPAR_RULE_METRICS_H_
