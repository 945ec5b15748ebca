#ifndef GPAR_MINE_MINED_RULE_H_
#define GPAR_MINE_MINED_RULE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "rule/gpar.h"

namespace gpar {

/// A discovered GPAR with its global statistics, as assembled by the DMine
/// coordinator from worker messages.
struct MinedRule {
  Gpar rule;
  uint64_t supp = 0;         ///< supp(R, G)
  uint64_t supp_qqbar = 0;   ///< supp(Q~q, G)
  double conf = 0;           ///< BF/LCWA confidence
  std::vector<NodeId> matches;  ///< P_R(x, G), global ids, sorted (for diff)
  bool extendable = false;   ///< some match still has unexplored hops
  uint64_t usupp = 0;        ///< matches with expansion room (Lemma 3)
  double uconf_plus = 0;     ///< Uconf+(R): confidence bound for extensions
  bool pruned = false;       ///< removed from Σ/ΔE by the reduction rules

  /// Per-fragment (parallel to the DMine worker array) local-center indices
  /// where P_R matched. Anti-monotonicity makes this the exact search pool
  /// for every extension of this rule: a child's P_R contains the parent's
  /// P_R, so the child can only match where the parent did. Doubly used by
  /// worker-side candidate generation: the rule "survives" in fragment i
  /// iff frag_pr_centers[i] is non-empty, exactly one surviving fragment
  /// owns (proposes) the rule's extensions, and the owner ships its list's
  /// size as the proposal's local support evidence. The levelwise driver
  /// clears these once the rule's children have been evaluated. Empty
  /// outside DMine.
  std::vector<std::vector<uint32_t>> frag_pr_centers;
  /// Same lineage for the negative side: per-fragment ~q-pool center indices
  /// where the antecedent's x-component matched (the supp(Q~q) pool).
  std::vector<std::vector<uint32_t>> frag_ant_centers;
};

}  // namespace gpar

#endif  // GPAR_MINE_MINED_RULE_H_
