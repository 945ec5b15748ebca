#include <memory>

#include "identify/center_evaluator.h"
#include "match/guided.h"
#include "match/multi_pattern.h"

namespace gpar {

namespace {

/// Match (Section 5.2): guided search with early termination plus
/// multi-pattern sharing. Three evaluators cover the per-center policies:
///  * q-match centers: P_R patterns (plus antecedents when the formal
///    output semantics needs Q-membership), evaluated jointly so that the
///    anchored-subsumption DAG shares work across Σ — in particular
///    Q_i ⊑ P_R_i, so a failed antecedent skips its P_R;
///  * other centers: antecedents only.
class MatchEvaluator : public CenterEvaluator {
 public:
  MatchEvaluator(const Graph& g, const GraphView* view,
                 const std::vector<Gpar>& sigma,
                 const std::vector<char>& other_ok, bool use_guided,
                 bool share, const SearchPlanStore* plans)
      : guided_(use_guided ? std::make_unique<GuidedMatcher>(g, view)
                           : nullptr),
        vf2_(use_guided ? nullptr : std::make_unique<VF2Matcher>(g, view)),
        sigma_(sigma),
        other_ok_(other_ok) {
    Matcher& m = guided_ ? static_cast<Matcher&>(*guided_)
                         : static_cast<Matcher&>(*vf2_);
    if (plans != nullptr) m.set_plan_store(plans);
    for (const Gpar& r : sigma_) {
      pr_patterns_.push_back(&r.pr());
      q_patterns_.push_back(&r.x_component());
    }
    if (share) {
      pr_eval_ = std::make_unique<MultiPatternEvaluator>(pr_patterns_);
      q_eval_ = std::make_unique<MultiPatternEvaluator>(q_patterns_);
    }
  }

  void Evaluate(NodeId v, bool is_q_match, bool is_qbar,
                bool need_q_membership, std::vector<char>* in_pr,
                std::vector<char>* in_q) override {
    const size_t n = sigma_.size();
    in_pr->assign(n, 0);
    in_q->assign(n, 0);
    Matcher& m = guided_ ? static_cast<Matcher&>(*guided_)
                         : static_cast<Matcher&>(*vf2_);
    if (is_q_match) {
      EvalSet(m, pr_patterns_, pr_eval_.get(), v, in_pr, nullptr);
      if (need_q_membership) {
        // Antecedents of matched P_Rs are implied; only the rest are
        // queried (seeded via known_yes when sharing is on).
        EvalSet(m, q_patterns_, q_eval_.get(), v, in_q, in_pr);
        for (size_t i = 0; i < n; ++i) {
          if (!other_ok_[i]) (*in_q)[i] = 0;
        }
      } else {
        for (size_t i = 0; i < n; ++i) (*in_q)[i] = (*in_pr)[i];
      }
    } else if (is_qbar || need_q_membership) {
      // Q-membership is needed for supp(Q~q) (negatives) or for the formal
      // output set; unknown centers are skipped entirely otherwise.
      EvalSet(m, q_patterns_, q_eval_.get(), v, in_q, nullptr);
      for (size_t i = 0; i < n; ++i) {
        if (!other_ok_[i]) (*in_q)[i] = 0;
      }
    }
  }

 private:
  /// Evaluates a pattern set at `v`: via the sharing evaluator when built,
  /// otherwise one independent exists-query per pattern.
  void EvalSet(Matcher& m, const std::vector<const Pattern*>& patterns,
               const MultiPatternEvaluator* eval, NodeId v,
               std::vector<char>* out, const std::vector<char>* known_yes) {
    if (eval != nullptr) {
      uint64_t before = eval->queries_issued();
      eval->EvaluateAt(m, v, out, known_yes);
      work_.exists_queries += eval->queries_issued() - before;
      return;
    }
    out->assign(patterns.size(), 0);
    for (size_t i = 0; i < patterns.size(); ++i) {
      if (known_yes != nullptr && (*known_yes)[i]) {
        (*out)[i] = 1;
        continue;
      }
      ++work_.exists_queries;
      (*out)[i] = m.ExistsAt(*patterns[i], v) ? 1 : 0;
    }
  }

  std::unique_ptr<GuidedMatcher> guided_;
  std::unique_ptr<VF2Matcher> vf2_;
  const std::vector<Gpar>& sigma_;
  const std::vector<char>& other_ok_;
  std::vector<const Pattern*> pr_patterns_;
  std::vector<const Pattern*> q_patterns_;
  std::unique_ptr<MultiPatternEvaluator> pr_eval_;
  std::unique_ptr<MultiPatternEvaluator> q_eval_;
};

}  // namespace

std::unique_ptr<CenterEvaluator> MakeMatchEvaluator(
    const Graph& frag_graph, const GraphView* view,
    const std::vector<Gpar>& sigma, const std::vector<char>& other_ok,
    bool use_guided_search, bool share_multi_patterns,
    const SearchPlanStore* plan_store) {
  return std::make_unique<MatchEvaluator>(frag_graph, view, sigma, other_ok,
                                          use_guided_search,
                                          share_multi_patterns, plan_store);
}

}  // namespace gpar
