#include <memory>

#include "identify/center_evaluator.h"
#include "match/matcher.h"

namespace gpar {

namespace {

/// Matchc decides memberships by full enumeration at the candidate: it
/// counts every embedding of the pattern anchored at v_x before concluding
/// (the cost Match's early termination removes). The pattern-per-candidate
/// policy is minimal: P_R for q-matches, Q otherwise.
class MatchcEvaluator : public CenterEvaluator {
 public:
  MatchcEvaluator(const Graph& g, const std::vector<Gpar>& sigma,
                  const std::vector<char>& other_ok, uint64_t cap)
      : matcher_(g), sigma_(sigma), other_ok_(other_ok), cap_(cap) {}

  void Evaluate(NodeId v, bool is_q_match, bool is_qbar,
                bool need_q_membership, std::vector<char>* in_pr,
                std::vector<char>* in_q) override {
    in_pr->assign(sigma_.size(), 0);
    in_q->assign(sigma_.size(), 0);
    for (size_t i = 0; i < sigma_.size(); ++i) {
      const Gpar& r = sigma_[i];
      if (is_q_match) {
        (*in_pr)[i] = EnumerateAt(r.pr(), v) ? 1 : 0;
        if ((*in_pr)[i]) {
          (*in_q)[i] = 1;  // P_R match implies Q match
        } else if (need_q_membership && other_ok_[i]) {
          (*in_q)[i] = EnumerateAt(r.x_component(), v) ? 1 : 0;
        }
      } else if ((is_qbar || need_q_membership) && other_ok_[i]) {
        // No valid consequent edge at v: P_R cannot match. Q-membership is
        // needed for supp(Q~q) (negatives) or for the formal output set.
        (*in_q)[i] = EnumerateAt(r.x_component(), v) ? 1 : 0;
      }
    }
  }

 private:
  bool EnumerateAt(const Pattern& p, NodeId v) {
    ++work_.exists_queries;
    Anchor a{p.x(), v};
    uint64_t n = matcher_.Enumerate(
        p, {&a, 1}, [](std::span<const NodeId>) { return true; }, cap_);
    work_.embeddings += n;
    return n > 0;
  }

  VF2Matcher matcher_;
  const std::vector<Gpar>& sigma_;
  const std::vector<char>& other_ok_;
  uint64_t cap_;
};

}  // namespace

std::unique_ptr<CenterEvaluator> MakeMatchcEvaluator(
    const Graph& g, const std::vector<Gpar>& sigma,
    const std::vector<char>& other_ok, uint64_t cap) {
  return std::make_unique<MatchcEvaluator>(g, sigma, other_ok, cap);
}

}  // namespace gpar
