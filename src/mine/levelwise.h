#ifndef GPAR_MINE_LEVELWISE_H_
#define GPAR_MINE_LEVELWISE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "match/matcher.h"
#include "mine/dmine.h"
#include "rule/rule_evidence.h"

namespace gpar {

/// The mining-parameter contract of every discovery entry point: k >= 2,
/// d >= 1, and a finite lambda in [0, 1].
Status ValidateMiningOptions(const DmineOptions& options);

/// A diversified top-k and its objective F(L_k).
struct DiversifiedTopK {
  std::vector<std::shared_ptr<MinedRule>> topk;
  double objective = 0;
};

/// "Discover and diversify": `FullDiversify` over the whole pool, plus
/// F(L_k). DMineno runs it every round, the naive miner once.
DiversifiedTopK DiversifyPool(
    const std::vector<std::shared_ptr<MinedRule>>& pool, uint32_t k,
    double lambda, double n_norm);

/// Round-0 pools, sorted by node id: centers matching q(x, ·), and LCWA
/// negatives.
struct LevelwisePools {
  std::vector<NodeId> q_pool;
  std::vector<NodeId> qbar_pool;
};

/// `GenerateExtensions` bound to one mining setup. Pure, so workers may
/// call it concurrently.
using Extender = std::function<std::vector<Gpar>(const Pattern& antecedent)>;

/// The two halves of a levelwise round that differ between engines:
/// candidate generation and support evaluation. DMine implements them with
/// BSP fragment workers, `RuleMaintainer` with evidence patching.
class LevelwiseEvaluator {
 public:
  virtual ~LevelwiseEvaluator() = default;

  /// Runs one coordinator section (DMine times it through its BspRuntime).
  virtual void Coordinator(const std::function<void()>& section) {
    section();
  }

  /// Round 0: splits the x-labeled centers into the q / ~q pools. `plans`
  /// already holds P_q, receives each round's candidates before `Evaluate`,
  /// and lives until `RunLevelwise` returns.
  virtual LevelwisePools EvaluatePools(const SearchPlanStore& plans) = 0;

  /// Appends one round's extensions and their parent indices in
  /// (parent, ordinal) order: `extend(base)` under `kRootParent` when
  /// `parents` is empty (round 1), else the extensions of every parent's
  /// antecedent. The default enumerates sequentially.
  virtual void Generate(const Pattern& base,
                        const std::vector<std::shared_ptr<MinedRule>>& parents,
                        const Extender& extend, std::vector<Gpar>* fresh,
                        std::vector<size_t>* fresh_parent);

  /// Returns one rule per candidate with `supp`, `supp_qqbar`,
  /// `extendable` and the sorted `matches` and `ant_matches` set (the
  /// latter empty when `other_ok[i] == 0`). `cand_parent` indexes
  /// `parents` (or is `kRootParent`); `other_ok[i] == 0` means an
  /// antecedent component without x has no match in G. A parent's
  /// `matches` and `ant_matches` are its children's pools.
  virtual std::vector<std::shared_ptr<MinedRule>> Evaluate(
      const std::vector<Gpar>& candidates,
      const std::vector<size_t>& cand_parent,
      const std::vector<char>& other_ok,
      const std::vector<std::shared_ptr<MinedRule>>& parents) = 0;
};

/// DMine's levelwise loop (Section 4.2) over the evaluator `ev`. After the
/// round-0 pools (empty pools end the run: every rule would be trivial),
/// each round extends the previous round's parents by one seed edge,
/// drops automorphic candidates (`DedupCandidates`, capped), accepts rules
/// with supp >= sigma and supp(Q~q) > 0, and updates the top-k with incDiv
/// plus the Lemma-3 reduction rules (or DMineno's full rediversification).
/// Extendable, unpruned rules that can still grow become the next
/// parents. Counters go to `stats`; `options` must pass
/// `ValidateMiningOptions`.
///
/// A non-null `evidence` receives the run's match evidence, the baseline
/// `RuleMaintainer` patches: the round-0 pools and one entry per evaluated
/// candidate, sub-sigma ones included, in evaluation order, copied from
/// the rules `Evaluate` returns. Its `setup` is left to the caller. This
/// is the one writer of evidence for DMine's seed and every maintenance
/// pass.
DiversifiedTopK RunLevelwise(const Graph& g, const Predicate& q,
                             const DmineOptions& options,
                             LevelwiseEvaluator& ev, DmineStats* stats,
                             RuleSetEvidence* evidence = nullptr);

}  // namespace gpar

#endif  // GPAR_MINE_LEVELWISE_H_
