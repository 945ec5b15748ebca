#ifndef GPAR_MAINTAIN_RULE_MAINTAINER_H_
#define GPAR_MAINTAIN_RULE_MAINTAINER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "mine/dmine.h"
#include "mine/mined_rule.h"
#include "rule/gpar.h"
#include "rule/rule_evidence.h"
#include "rule/rule_snapshot.h"

namespace gpar {

/// Options for `RuleMaintainer`.
struct MaintainOptions {
  /// The mining parameters the maintained rule set is defined by. Every
  /// refresh pass runs DMine's levelwise driver (`RunLevelwise`) under
  /// these exact parameters (the maintained output is DEFINED as what
  /// `Dmine` would return on the current graph), so they are fixed at
  /// construction and persisted with the evidence. They must pass
  /// `ValidateMiningOptions`. `num_workers` is irrelevant here — DMine
  /// results are worker-count-independent and the maintainer evaluates
  /// sequentially — and `enable_prune_aware_usupp` is rejected (its Usupp
  /// tightening depends on fragment geometry the maintainer does not have).
  DmineOptions mine;
  /// The subsystem's own ablation flag: off = every pass re-probes every
  /// pool center from scratch (a sequential re-mine — the "remine" baseline
  /// of BENCH_maintenance), on = only centers inside the delta-affected
  /// region are re-probed; everything else is carried from evidence. Both
  /// settings produce identical rule sets (MaintainEquivalence battery).
  bool enable_incremental_maintenance = true;
};

/// Cost accounting for one maintenance pass (and, accumulated, for the
/// maintainer's lifetime — `evidence_bytes_*` are point-in-time, not sums).
struct MaintainStats {
  uint64_t passes = 0;
  size_t edges_inserted = 0;  ///< applied mutations this pass
  size_t edges_deleted = 0;
  /// Nodes in the delta-affected region (radius d) — the re-probe frontier.
  uint64_t affected_nodes = 0;
  uint64_t centers_reprobed = 0;  ///< pool memberships recomputed by matching
  uint64_t centers_carried = 0;   ///< pool memberships reused from evidence
  uint64_t exists_calls = 0;      ///< matcher probes (pools + rules)
  size_t candidates_evaluated = 0;  ///< candidate rules the pass walked
  /// Candidates whose match sets were patched from a prior pass's evidence
  /// (only affected centers re-probed).
  size_t rules_patched = 0;
  /// Candidates with no usable evidence — first seen, or their pattern
  /// never evaluated before — re-expanded by probing their full (parent-
  /// restricted) pool.
  size_t rules_reexpanded = 0;
  /// Rules whose support crossed sigma since their last evidence: upward
  /// crossings (re)admit the rule to Σ, downward ones retire it.
  size_t sigma_crossed_up = 0;
  size_t sigma_crossed_down = 0;
  size_t rules_accepted = 0;  ///< entered Σ this pass (supp >= sigma, nontrivial)
  /// Serialized size of the pass's full evidence section, raw center lists
  /// vs the match-set-delta encoding actually persisted (point-in-time).
  uint64_t evidence_bytes_full = 0;
  uint64_t evidence_bytes_delta = 0;
  double seconds = 0;
};

/// Incremental rule maintenance: keeps a mined diversified top-k — and the
/// full per-rule match evidence behind it — fresh under the delta stream
/// without re-running DMine.
///
/// The maintained invariant: after every pass, `topk()`/`objective()` (and
/// the supports/confidences of every rule in Σ) equal what
/// `Dmine(current graph, q, options.mine)` would return, byte-for-byte.
/// Each pass runs DMine's levelwise driver (`RunLevelwise`: seed alphabet,
/// candidate generation, automorphism dedup, incDiv, reduction rules) with
/// sequential candidate generation and, in place of DMine's fragment
/// workers, evidence patching for the expensive part, match evaluation: by
/// the locality property (Section 5.1) a center's membership in a pattern
/// of eval radius r depends only on G_r(center), so only
/// centers within d hops of a touched edge (`DeltaAffectedRegion`) are
/// re-probed; every other membership is carried from the previous pass's
/// evidence. A candidate whose pattern has no prior evidence (a sigma
/// crossing upstream changed the lineage, or the seed alphabet shifted) is
/// re-expanded locally: its pool is already restricted to its parent's
/// fresh match set, so the full probe stays proportional to that rule, not
/// the graph.
///
/// Not thread-safe: callers serialize passes (the servers run them under
/// their writer lock).
class RuleMaintainer {
 public:
  /// Seeds a maintainer by running one full discovery pass on `g` — the
  /// result is identical to `Dmine(g, q, options.mine)`, and the pass's
  /// match evidence becomes the baseline later deltas patch.
  static Result<std::unique_ptr<RuleMaintainer>> Seed(
      std::shared_ptr<const Graph> g, const Predicate& q,
      const MaintainOptions& options = {});

  /// Restores a maintainer from a persisted evidence section (rule-snapshot
  /// v2) against the graph that section was exported at. The evidence setup
  /// must match `options.mine` (same predicate labels and mining
  /// parameters); a mismatch is InvalidArgument — patching against a
  /// foreign lineage would silently corrupt supports. Runs one zero-delta
  /// pass to rebuild Σ/top-k from the evidence — no pool probes, pattern-
  /// level work only.
  static Result<std::unique_ptr<RuleMaintainer>> FromEvidence(
      std::shared_ptr<const Graph> g, RuleSetEvidence evidence,
      const MaintainOptions& options = {});

  /// Applies one mutation batch: patches the graph internally, then runs a
  /// maintenance pass over the applied mutations. A batch that changes
  /// nothing (all duplicates/missing) only advances the sequence.
  Result<MaintainStats> ApplyDelta(const GraphDelta& delta);

  /// Serving hook: the caller (a server) already patched and swapped the
  /// graph; run the maintenance pass from the applied mutations. `old_graph`
  /// is the pre-delta graph (needed for the delete side of the affected
  /// region); the maintainer adopts `new_graph` as current.
  Result<MaintainStats> Advance(const Graph& old_graph,
                                std::shared_ptr<const Graph> new_graph,
                                std::span<const EdgeInsert> applied,
                                std::span<const EdgeDelete> applied_deletes);

  /// Replays every journal frame with sequence > `last_sequence()` through
  /// `ApplyDelta`, in order — snapshot + journal convergence for the
  /// maintained rule set, mirroring the servers' attach-is-recovery
  /// discipline. Returns the accumulated stats of the replayed passes.
  Result<MaintainStats> ReplayJournal(const std::string& journal_path);

  /// The maintained diversified top-k (same contents as DmineResult::topk
  /// on the current graph) and its objective F(L_k).
  const std::vector<std::shared_ptr<MinedRule>>& topk() const { return topk_; }
  double objective() const { return objective_; }
  /// The top-k as serving-layer records (rule, supp, conf).
  std::vector<RuleRecord> TopKRecords() const;

  /// The current evidence — what rule-snapshot v2 persists. Entries are in
  /// evaluation order (parents precede children).
  const RuleSetEvidence& evidence() const { return evidence_; }
  RuleSetEvidence ExportEvidence() const { return evidence_; }

  std::shared_ptr<const Graph> graph() const { return graph_; }
  const Predicate& predicate() const { return q_; }
  const MaintainOptions& options() const { return options_; }
  uint64_t supp_q() const { return evidence_.q_pool.size(); }
  uint64_t supp_qbar() const { return evidence_.qbar_pool.size(); }
  /// Sequence of the last applied delta (journal bookkeeping).
  uint64_t last_sequence() const { return last_sequence_; }
  const MaintainStats& lifetime_stats() const { return lifetime_; }

 private:
  RuleMaintainer(std::shared_ptr<const Graph> g, const Predicate& q,
                 const MaintainOptions& options);

  /// One maintenance pass on the current graph. `affected` maps node ->
  /// min distance to a touched endpoint; nullptr = probe everything (the
  /// seed pass and the incremental-off ablation).
  Status RefreshPass(const std::unordered_map<NodeId, uint32_t>* affected,
                     MaintainStats* ps);

  MaintainOptions options_;
  std::shared_ptr<const Graph> graph_;
  Predicate q_;

  /// The current evidence: pools + per-candidate match sets of the latest
  /// pass (ALL evaluated candidates, sub-sigma ones included — that is
  /// what makes upward sigma crossings cheap).
  RuleSetEvidence evidence_;

  std::vector<std::shared_ptr<MinedRule>> topk_;
  double objective_ = 0;
  uint64_t last_sequence_ = 0;
  MaintainStats lifetime_;
};

}  // namespace gpar

#endif  // GPAR_MAINTAIN_RULE_MAINTAINER_H_
