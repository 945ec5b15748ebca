#include <memory>

#include "identify/center_evaluator.h"
#include "match/matcher.h"

namespace gpar {

namespace {

/// disVF2 performs two isomorphism checks — P_R and Q — at *every*
/// candidate, each by full enumeration. This is the conventional
/// apply-a-matcher baseline of Section 6, against which Matchc/Match are
/// 4.79x / 6.24x faster in the paper.
class DisVf2Evaluator : public CenterEvaluator {
 public:
  DisVf2Evaluator(const Graph& g, const std::vector<Gpar>& sigma,
                  const std::vector<char>& other_ok, uint64_t cap)
      : matcher_(g), sigma_(sigma), other_ok_(other_ok), cap_(cap) {}

  void Evaluate(NodeId v, bool is_q_match, bool is_qbar,
                bool need_q_membership, std::vector<char>* in_pr,
                std::vector<char>* in_q) override {
    (void)is_q_match;
    (void)is_qbar;
    (void)need_q_membership;
    in_pr->assign(sigma_.size(), 0);
    in_q->assign(sigma_.size(), 0);
    for (size_t i = 0; i < sigma_.size(); ++i) {
      const Gpar& r = sigma_[i];
      // Both checks, unconditionally (centers without a consequent edge
      // still pay for the P_R enumeration attempt).
      (*in_pr)[i] = EnumerateAt(r.pr(), v) ? 1 : 0;
      bool q_local = EnumerateAt(r.x_component(), v);
      (*in_q)[i] = (q_local && other_ok_[i]) ? 1 : 0;
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

std::unique_ptr<CenterEvaluator> MakeDisVf2Evaluator(
    const Graph& g, const std::vector<Gpar>& sigma,
    const std::vector<char>& other_ok, uint64_t cap) {
  return std::make_unique<DisVf2Evaluator>(g, sigma, other_ok, cap);
}

}  // namespace gpar
