#include "match/multi_pattern.h"

#include <algorithm>
#include <numeric>

#include "pattern/automorphism.h"
#include "pattern/pattern_ops.h"

namespace gpar {

MultiPatternEvaluator::MultiPatternEvaluator(
    std::vector<const Pattern*> patterns)
    : patterns_(std::move(patterns)) {
  const size_t n = patterns_.size();
  canonical_.resize(n);
  implies_.resize(n);
  implied_failed_.resize(n);

  // Duplicate elimination: canonical_[i] = first designated-isomorphic twin.
  for (size_t i = 0; i < n; ++i) {
    canonical_[i] = i;
    for (size_t j = 0; j < i; ++j) {
      if (canonical_[j] == j &&
          AreIsomorphic(*patterns_[i], *patterns_[j],
                        /*preserve_designated=*/true)) {
        canonical_[i] = j;
        break;
      }
    }
  }

  // Subsumption DAG over canonical representatives: i ⊑ j (i embeds into j,
  // anchored) means j's success implies i's, and i's failure implies j's.
  for (size_t i = 0; i < n; ++i) {
    if (canonical_[i] != i) continue;
    for (size_t j = 0; j < n; ++j) {
      if (i == j || canonical_[j] != j) continue;
      if (patterns_[i]->num_edges() <= patterns_[j]->num_edges() &&
          IsSubsumedBy(*patterns_[i], *patterns_[j],
                       /*anchor_designated=*/false)) {
        // Anchored-at-x subsumption is what licenses per-candidate pruning;
        // re-check with the anchor.
        if (IsSubsumedBy(*patterns_[i], *patterns_[j],
                         /*anchor_designated=*/true)) {
          implies_[j].push_back(i);         // j matched -> i matched
          implied_failed_[i].push_back(j);  // i failed  -> j failed
        }
      }
    }
  }

  // Evaluate small antecedents first so failures prune larger ones.
  eval_order_.resize(n);
  std::iota(eval_order_.begin(), eval_order_.end(), 0);
  std::stable_sort(eval_order_.begin(), eval_order_.end(),
                   [&](size_t a, size_t b) {
                     return patterns_[a]->num_edges() <
                            patterns_[b]->num_edges();
                   });
}

void MultiPatternEvaluator::EvaluateAt(
    VF2Matcher& m, NodeId vx, std::vector<char>* out,
    const std::vector<char>* known_yes) const {
  const size_t n = patterns_.size();
  enum : char { kUnknown = -1, kNo = 0, kYes = 1 };
  std::vector<char> state(n, kUnknown);
  if (known_yes != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      if ((*known_yes)[i]) {
        state[canonical_[i]] = kYes;
        for (size_t k : implies_[canonical_[i]]) {
          if (state[k] == kUnknown) state[k] = kYes;
        }
      }
    }
  }

  for (size_t idx : eval_order_) {
    if (canonical_[idx] != idx) continue;
    if (state[idx] != kUnknown) continue;
    ++queries_issued_;
    bool matched = m.ExistsAt(*patterns_[idx], vx);
    state[idx] = matched ? kYes : kNo;
    if (matched) {
      for (size_t k : implies_[idx]) {
        if (state[k] == kUnknown) state[k] = kYes;
      }
    } else {
      // Propagate failure transitively through the DAG.
      std::vector<size_t> stack(implied_failed_[idx].begin(),
                                implied_failed_[idx].end());
      while (!stack.empty()) {
        size_t k = stack.back();
        stack.pop_back();
        if (state[k] != kUnknown) continue;
        state[k] = kNo;
        stack.insert(stack.end(), implied_failed_[k].begin(),
                     implied_failed_[k].end());
      }
    }
  }

  out->assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    (*out)[i] = state[canonical_[i]] == kYes ? 1 : 0;
  }
}

}  // namespace gpar
