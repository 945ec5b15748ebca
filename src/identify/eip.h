#ifndef GPAR_IDENTIFY_EIP_H_
#define GPAR_IDENTIFY_EIP_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "parallel/bsp.h"
#include "rule/gpar.h"

namespace gpar {

/// Algorithm selector for the entity identification problem (Section 5).
enum class EipAlgorithm {
  /// Match: data locality + early termination + multi-pattern sharing
  /// (Section 5.2; without the paper's sketch-guided search).
  kMatch,
  /// Matchc: the parallel-scalable baseline — data locality but full
  /// enumeration of matches per candidate (Section 5.1).
  kMatchc,
  /// disVF2: parallel VF2 that enumerates both P_R and Q at every
  /// candidate — two isomorphism checks per candidate vs one (Section 6).
  kDisVf2,
  /// Single-threaded reference evaluation on the whole graph (test oracle).
  kSequential,
};

/// Options for `IdentifyEntities`.
struct EipOptions {
  EipAlgorithm algorithm = EipAlgorithm::kMatch;
  uint32_t num_workers = 4;
  double eta = 1.0;  ///< confidence bound η
  /// Formal semantics (Table 1) output Q(x, G) matches; §5.1's Matchc prose
  /// outputs P_R(x, G) matches. False = formal definition (default).
  bool require_consequent = false;
  uint64_t enumeration_cap = 0;  ///< per-candidate embedding cap, 0 = none
};

/// Per-rule evaluation assembled across fragments.
struct EipRuleEval {
  uint64_t supp_r = 0;
  uint64_t supp_qqbar = 0;
  double conf = 0;
};

/// Result of entity identification.
struct EipResult {
  /// Σ(x, G, η): potential customers, global node ids, sorted.
  std::vector<NodeId> entities;
  std::vector<EipRuleEval> rule_evals;  ///< parallel to the input Σ
  uint64_t supp_q = 0;
  uint64_t supp_qbar = 0;
  ParallelTimes times;
  uint64_t exists_queries = 0;        ///< total membership checks issued
  uint64_t embeddings_enumerated = 0; ///< total embeddings visited
};

/// Validated per-Σ setup shared by batch identification and the serving
/// session (serve/rule_server.h): the common predicate and the locality
/// radius d = max over Σ of `eval_radius()`.
struct SigmaInfo {
  Predicate q;
  uint32_t d = 0;
};

/// Checks that `sigma` is nonempty and uniform in q(x, y); returns the
/// predicate and the partitioning/invalidation radius.
Result<SigmaInfo> ValidateSigma(const std::vector<Gpar>& sigma);

/// Satisfiability of antecedent components not containing x: such
/// components can match anywhere in G, so one global check per rule
/// replaces per-center work (all-ones for connected antecedents). Entry i
/// is 0 iff some component of rule i's antecedent has no match in `g` —
/// then Q matches nobody regardless of the center.
std::vector<char> OtherComponentsOk(const Graph& g,
                                    const std::vector<Gpar>& sigma);

/// Computes Σ(x, G, η) = { v_x ∈ Q(x, G) | Q => q ∈ Σ, conf(R, G) >= η }
/// for a set `sigma` of GPARs pertaining to one predicate q(x, y).
///
/// Parallel algorithms partition G into `num_workers` fragments with d-hop
/// locality (d = max radius over Σ) and evaluate owned candidates locally;
/// confidences are assembled globally — the structure proving EIP parallel
/// scalable (Theorem 6).
Result<EipResult> IdentifyEntities(const Graph& g,
                                   const std::vector<Gpar>& sigma,
                                   const EipOptions& options = {});

}  // namespace gpar

#endif  // GPAR_IDENTIFY_EIP_H_
