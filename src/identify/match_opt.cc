#include <memory>

#include "identify/center_evaluator.h"
#include "match/multi_pattern.h"

namespace gpar {

namespace {

/// Match (Section 5.2): exists-queries with early termination plus
/// multi-pattern sharing. Two sharing evaluators cover the per-center
/// policies:
///  * q-match centers: P_R patterns (plus antecedents when the formal
///    output semantics needs Q-membership), evaluated jointly so that the
///    anchored-subsumption DAG shares work across Σ — in particular
///    Q_i ⊑ P_R_i, so a failed antecedent skips its P_R;
///  * other centers: antecedents only.
class MatchEvaluator : public CenterEvaluator {
 public:
  MatchEvaluator(const Graph& g, const std::vector<Gpar>& sigma,
                 const std::vector<char>& other_ok,
                 const SearchPlanStore* plans)
      : matcher_(g),
        sigma_(sigma),
        other_ok_(other_ok),
        pr_eval_(Patterns(sigma, &Gpar::pr)),
        q_eval_(Patterns(sigma, &Gpar::x_component)) {
    if (plans != nullptr) matcher_.set_plan_store(plans);
  }

  void Evaluate(NodeId v, bool is_q_match, bool is_qbar,
                bool need_q_membership, std::vector<char>* in_pr,
                std::vector<char>* in_q) override {
    const size_t n = sigma_.size();
    in_pr->assign(n, 0);
    in_q->assign(n, 0);
    if (is_q_match) {
      EvalSet(pr_eval_, v, in_pr, nullptr);
      if (need_q_membership) {
        // Antecedents of matched P_Rs are implied; only the rest are
        // queried (seeded via known_yes).
        EvalSet(q_eval_, v, in_q, in_pr);
        for (size_t i = 0; i < n; ++i) {
          if (!other_ok_[i]) (*in_q)[i] = 0;
        }
      } else {
        for (size_t i = 0; i < n; ++i) (*in_q)[i] = (*in_pr)[i];
      }
    } else if (is_qbar || need_q_membership) {
      // Q-membership is needed for supp(Q~q) (negatives) or for the formal
      // output set; unknown centers are skipped entirely otherwise.
      EvalSet(q_eval_, v, in_q, nullptr);
      for (size_t i = 0; i < n; ++i) {
        if (!other_ok_[i]) (*in_q)[i] = 0;
      }
    }
  }

 private:
  /// One pattern per rule, taken by `get`; the rules outlive the evaluator.
  static std::vector<const Pattern*> Patterns(
      const std::vector<Gpar>& sigma, const Pattern& (Gpar::*get)() const) {
    std::vector<const Pattern*> out;
    out.reserve(sigma.size());
    for (const Gpar& r : sigma) out.push_back(&(r.*get)());
    return out;
  }

  /// Evaluates one pattern set at `v` through its sharing evaluator.
  void EvalSet(const MultiPatternEvaluator& eval, NodeId v,
               std::vector<char>* out, const std::vector<char>* known_yes) {
    const uint64_t before = eval.queries_issued();
    eval.EvaluateAt(matcher_, v, out, known_yes);
    work_.exists_queries += eval.queries_issued() - before;
  }

  VF2Matcher matcher_;
  const std::vector<Gpar>& sigma_;
  const std::vector<char>& other_ok_;
  MultiPatternEvaluator pr_eval_;
  MultiPatternEvaluator q_eval_;
};

}  // namespace

std::unique_ptr<CenterEvaluator> MakeMatchEvaluator(
    const Graph& g, const std::vector<Gpar>& sigma,
    const std::vector<char>& other_ok, const SearchPlanStore* plan_store) {
  return std::make_unique<MatchEvaluator>(g, sigma, other_ok, plan_store);
}

}  // namespace gpar
