#ifndef GPAR_MATCH_MULTI_PATTERN_H_
#define GPAR_MATCH_MULTI_PATTERN_H_

#include <cstdint>
#include <vector>

#include "match/matcher.h"
#include "pattern/pattern.h"

namespace gpar {

/// Shared evaluation of many anchored patterns at the same candidate node —
/// the multi-GPAR optimization of Match (Section 5.2, after [32]).
///
/// Two ideas, both exploiting anchored subsumption (x -> x):
///  * duplicate elimination: designated-isomorphic patterns are evaluated
///    once;
///  * implication pruning: if Q ⊑ Q' (Q embeds into Q' anchored at x), a
///    failure of Q at v_x implies a failure of Q' at v_x, so Q' is skipped;
///    symmetrically a success of Q' implies a success of Q.
class MultiPatternEvaluator {
 public:
  /// `patterns` must outlive the evaluator.
  explicit MultiPatternEvaluator(std::vector<const Pattern*> patterns);

  /// Evaluates ExistsAt(pattern_i, vx) for every pattern; results in
  /// (*out)[i]. Uses `m` for the underlying exists-queries.
  ///
  /// `known_yes`, when non-null (size = #patterns), marks patterns already
  /// known to match at vx (e.g. antecedents whose P_R matched): they are
  /// not re-queried and their implications are propagated for free.
  void EvaluateAt(VF2Matcher& m, NodeId vx, std::vector<char>* out,
                  const std::vector<char>* known_yes = nullptr) const;

  /// Number of exists-queries actually issued by the last EvaluateAt calls
  /// (cumulative); always <= patterns * calls. For benches/tests.
  uint64_t queries_issued() const { return queries_issued_; }

 private:
  std::vector<const Pattern*> patterns_;
  std::vector<size_t> canonical_;  // index of representative duplicate
  // implies_[i] = patterns implied-matched when i matches (i embeds them);
  // implied_failed_[i] = patterns implied-failed when i fails (they embed i).
  std::vector<std::vector<size_t>> implies_;
  std::vector<std::vector<size_t>> implied_failed_;
  std::vector<size_t> eval_order_;  // smaller patterns first
  mutable uint64_t queries_issued_ = 0;
};

}  // namespace gpar

#endif  // GPAR_MATCH_MULTI_PATTERN_H_
