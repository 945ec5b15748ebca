#ifndef GPAR_MINE_REDUCTION_H_
#define GPAR_MINE_REDUCTION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mine/mined_rule.h"

namespace gpar {

/// Statistics from one application of the Lemma-3 reduction rules.
struct ReductionStats {
  size_t pruned_sigma = 0;
  size_t pruned_delta = 0;
};

/// Applies the paper's reduction rules (Lemma 3) to fixpoint, marking
/// `pruned` on rules that can no longer contribute to L_k:
///
///  (1) R ∈ Σ is pruned when
///      (1-λ)/(N(k-1)) (conf(R) + maxUconf+(ΔE)) + 2λ/(k-1) <= F'm;
///  (2) R_j ∈ ΔE is pruned (not extended further) when it is not extendable
///      or (1-λ)/(N(k-1)) (Uconf+(R_j) + max conf(Σ)) + 2λ/(k-1) <= F'm.
///
/// Both bounds shrink as rules are removed (max conf(Σ) and maxUconf+(ΔE)
/// are monotonically decreasing), so the rules are reapplied until nothing
/// changes. Rules currently in the top-k queue are exempt (`in_queue`):
/// they already contribute to L_k.
ReductionStats ApplyReductionRules(
    const std::vector<std::shared_ptr<MinedRule>>& sigma,
    const std::vector<std::shared_ptr<MinedRule>>& delta, double fprime_min,
    double lambda, double n_norm, uint32_t k,
    const std::function<bool(const MinedRule*)>& in_queue);

/// Uconf+(R): the upper bound on the confidence of any extension of R,
/// from the summed per-fragment Usupp values (Section 4.2):
///   Uconf+(R) = (Σ_i Usupp_i) * supp(~q, G) / (1 * supp(q, G)).
/// The miners pass supp(R, G): an extension matches a subset of R's
/// centers (anti-monotonicity), so supp is a sound Usupp.
double UConfPlus(uint64_t usupp_total, uint64_t supp_qbar, uint64_t supp_q);

}  // namespace gpar

#endif  // GPAR_MINE_REDUCTION_H_
