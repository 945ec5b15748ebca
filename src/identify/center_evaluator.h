#ifndef GPAR_IDENTIFY_CENTER_EVALUATOR_H_
#define GPAR_IDENTIFY_CENTER_EVALUATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_view.h"
#include "match/matcher.h"
#include "rule/gpar.h"

namespace gpar {

/// Work counters accumulated by a center evaluator.
struct EvaluatorWork {
  uint64_t exists_queries = 0;
  uint64_t embeddings = 0;
};

/// Strategy interface: decides, for one candidate center, membership in
/// P_R(x, ·) and Q(x, ·) for every rule. The three EIP algorithms differ
/// only in this strategy; the partitioning/assembly skeleton is shared.
class CenterEvaluator {
 public:
  virtual ~CenterEvaluator() = default;

  /// Evaluates the center `v` (local id in the fragment graph).
  ///  * `is_q_match`: v ∈ P_q(x, ·) (has a consequent edge to a valid y);
  ///  * `is_qbar`:    v is an LCWA negative;
  ///  * `need_q_membership`: Q(x, ·) membership must be reported even when
  ///    it is not needed for confidence (formal output semantics).
  /// On return (*in_pr)[i] / (*in_q)[i] hold the memberships for rule i.
  virtual void Evaluate(NodeId v, bool is_q_match, bool is_qbar,
                        bool need_q_membership, std::vector<char>* in_pr,
                        std::vector<char>* in_q) = 0;

  const EvaluatorWork& work() const { return work_; }

 protected:
  EvaluatorWork work_;
};

/// Q-membership inside a fragment is decided on the antecedent's
/// x-component (exactly localizable within eval_radius hops); `other_ok[i]`
/// says whether rule i's remaining antecedent components (which may match
/// anywhere in G) were found globally — when false, Q matches nobody.
///
/// Every factory takes the fragment as (graph, view): `view == nullptr`
/// means `frag_graph` is matched whole, non-null restricts matching to the
/// zero-copy fragment view — candidates and evidence are then parent-global
/// ids.

/// Matchc (Section 5.1): one pattern check per candidate via the minimal
/// policy, but membership decided by *enumerating* matches (no early
/// termination), with plain VF2.
std::unique_ptr<CenterEvaluator> MakeMatchcEvaluator(
    const Graph& frag_graph, const GraphView* view,
    const std::vector<Gpar>& sigma, const std::vector<char>& other_ok,
    uint64_t cap);

/// Match (Section 5.2): early termination (exists-queries, the
/// definitional difference to Matchc) and multi-pattern sharing across Σ.
/// The paper's third ingredient, k-hop-sketch-guided candidate ordering,
/// is left out: the matcher's fail-first plans already order the search by
/// selectivity, and sketches only made probes slower (README,
/// "Reproduction substitutions").
///
/// `plan_store` optionally attaches shared read-only search plans (the
/// serving session's reuse hook), consulted before planning privately;
/// batch identification passes none.
std::unique_ptr<CenterEvaluator> MakeMatchEvaluator(
    const Graph& frag_graph, const GraphView* view,
    const std::vector<Gpar>& sigma, const std::vector<char>& other_ok,
    const SearchPlanStore* plan_store = nullptr);

/// disVF2 (Section 6 baseline): enumerates embeddings of BOTH P_R and Q at
/// every candidate — two isomorphism checks per candidate.
std::unique_ptr<CenterEvaluator> MakeDisVf2Evaluator(
    const Graph& frag_graph, const GraphView* view,
    const std::vector<Gpar>& sigma, const std::vector<char>& other_ok,
    uint64_t cap);

}  // namespace gpar

#endif  // GPAR_IDENTIFY_CENTER_EVALUATOR_H_
