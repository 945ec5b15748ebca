#ifndef GPAR_MAINTAIN_RULE_MAINTAINER_H_
#define GPAR_MAINTAIN_RULE_MAINTAINER_H_

#include <cstdint>
#include <memory>
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
  /// The mining parameters the maintained rule set is defined by. The seed
  /// is one `Dmine` run and every refresh pass runs DMine's levelwise
  /// driver (`RunLevelwise`) under these exact parameters (the maintained
  /// output is DEFINED as what `Dmine` would return on the current graph),
  /// so they are fixed at construction and persisted with the evidence.
  /// They must pass `ValidateMiningOptions`. `num_workers` sets the seed's
  /// BSP worker count; results do not depend on it.
  DmineOptions mine;
};

/// Cost accounting for one maintenance pass (and, accumulated, for the
/// maintainer's lifetime — `evidence_bytes_*` are point-in-time, not sums).
struct MaintainStats {
  uint64_t passes = 0;
  size_t edges_inserted = 0;  ///< applied mutations this pass
  size_t edges_deleted = 0;
  /// Nodes within d hops of a touched endpoint (`DeltaFootprint::region`):
  /// the region locality alone would re-probe. Pools are re-probed within
  /// 1 hop; the label and direction tests narrow the pattern re-probes to
  /// a subset of this region.
  uint64_t affected_nodes = 0;
  /// Memberships (pool, P_R or x-component) recomputed by matching: those
  /// with no prior evidence, those of a center whose q / ~q pool status
  /// flipped this pass, and those within the rule's radius of a delta edge
  /// whose label triple the pattern uses and whose direction can change
  /// the old answer (a delete for an old member, an insert for an old
  /// non-member). In the seed, every membership DMine's workers probed
  /// (its `DmineStats::exists_calls`).
  uint64_t centers_reprobed = 0;
  /// Memberships reused from evidence. `centers_reprobed + centers_carried`
  /// equals the `centers_reprobed` of a fresh `Seed` on the post-delta
  /// graph.
  uint64_t centers_carried = 0;
  uint64_t exists_calls = 0;        ///< matcher probes (pools + rules)
  size_t candidates_evaluated = 0;  ///< candidate rules the pass walked
  /// Candidates whose match sets were patched from a prior pass's evidence
  /// (only the memberships the delta can change re-probed).
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

/// The `MiningSetup::bool_flags` layout, written and read only here. Bits
/// 0-2 carry DMine's ablation switches in `DmineOptions` declaration order
/// (incremental diversification, reduction rules, bisimulation prefilter).
/// Bits 3-6 belonged to four retired switches (parent pruning, worker-side
/// generation, copied fragments, shared plans) that never changed a result:
/// the encoder writes them at those switches' defaults (on, on, off, on),
/// so setups serialize as they always did, and the decoder ignores them.
/// Bit 7 belonged to the retired prune-aware Usupp heuristic, which could
/// change a result; it is written as 0.
uint32_t PackMiningFlags(const DmineOptions& o);
/// Sets the three switches of `*o` from `flags`. InvalidArgument when
/// `flags` carries a bit above 7 (written by a newer build) or bit 7 (a
/// setup mined with prune-aware Usupp, which this build cannot
/// reproduce).
Status UnpackMiningFlags(uint32_t flags, DmineOptions* o);

/// The evidence setup of a mining run of `q` under `o`, labels by name.
/// `Seed` stamps it on the evidence it captures; a caller that runs
/// `Dmine(..., &evidence)` itself stamps it before writing snapshot v2.
MiningSetup MakeMiningSetup(const DmineOptions& o, const Predicate& q,
                            const Interner& labels);

/// Incremental rule maintenance: keeps a mined diversified top-k — and the
/// full per-rule match evidence behind it — fresh under the delta stream
/// without re-running DMine.
///
/// The maintained invariant: after every pass, `topk()`/`objective()` (and
/// the supports/confidences of every rule in Σ) equal what
/// `Dmine(current graph, q, options.mine)` would return, byte-for-byte.
/// The seed is that `Dmine` run, with its match evidence captured. Each
/// later pass runs DMine's levelwise driver (`RunLevelwise`: seed
/// alphabet, candidate generation, automorphism dedup, incDiv, reduction
/// rules) with sequential candidate generation and, in place of DMine's
/// fragment workers, evidence patching for the expensive part, match
/// evaluation.
/// A center's membership in a pattern P (P_R or the antecedent's
/// x-component) is carried from the previous pass's evidence unless one of
/// three rules asks for a probe:
///
///  1. Pool flip. The center's q / ~q pool status changed this pass. Pools
///     are re-probed within 1 hop of a touched endpoint (P_q has radius 1;
///     the ~q test reads the center's own out-edges). A center that just
///     entered a pool is missing from every old match set because it was
///     outside the pool, not because it failed to match, so it is probed
///     in every pattern.
///  2. Direction. Matching is non-induced (Section 2.1), so an inserted
///     edge can only add matches and a deleted edge can only remove them.
///     An old member is probed only if a relevant deleted edge has an
///     endpoint within eval_radius of the center in the old graph; an old
///     non-member only if a relevant inserted edge has one within
///     eval_radius in the new graph. Every edge of a match at the center
///     lies within the pattern's radius of it (locality, Section 5.1).
///  3. Label relevance. A delta edge (a, l, b) is relevant to P only if P
///     has an edge labelled l from a node labelled label(a) to one
///     labelled label(b): matching is label-exact, so no other edge is
///     ever the image of a pattern edge. Node labels never change under a
///     delta.
///
/// A center absent from an old match set and outside rule 1 is a true old
/// non-member: the old set was probed over the parent's old matches, and
/// the parent pattern is a subpattern of the child (anti-monotonicity),
/// down to the round-0 pool the center was already in. This is the
/// affected-area bound of incremental pattern matching (Fan, Wang and Wu,
/// TODS 2013) applied to GPAR evidence. A candidate whose pattern has no
/// prior evidence (a sigma crossing upstream changed the lineage, or the
/// seed alphabet shifted) is re-expanded locally: its pool is already
/// restricted to its parent's fresh match set, so the full probe stays
/// proportional to that rule, not the graph.
///
/// Not thread-safe: callers serialize passes (the servers run them under
/// their writer lock).
class RuleMaintainer {
 public:
  /// Seeds a maintainer with one `Dmine(g, q, options.mine)` run: its
  /// top-k and objective are adopted as they are, and the match evidence
  /// it captures becomes the baseline later deltas patch. Errors are
  /// Dmine's (InvalidArgument for zero workers or bad mining parameters).
  static Result<std::unique_ptr<RuleMaintainer>> Seed(
      std::shared_ptr<const Graph> g, const Predicate& q,
      const MaintainOptions& options = {});

  /// Restores a maintainer from a persisted evidence section (rule-snapshot
  /// v2). `g` must be the graph that section was exported at. The restore
  /// never grows g's dictionary: unknown predicate labels, or a pooled
  /// center that is not an x-labelled node of `g`, are InvalidArgument.
  /// Evidence of another graph that passes both checks is NOT detected (v2
  /// carries no graph fingerprint) and yields rules that need not be
  /// `Dmine`'s on `g`. The evidence setup must match `options.mine` (same
  /// predicate labels and mining parameters); a mismatch is
  /// InvalidArgument — patching against a foreign lineage would silently
  /// corrupt supports. Runs one zero-delta pass to rebuild Σ/top-k from the
  /// evidence; on the right graph it probes no center, pattern-level work
  /// only.
  static Result<std::unique_ptr<RuleMaintainer>> FromEvidence(
      std::shared_ptr<const Graph> g, RuleSetEvidence evidence,
      const MaintainOptions& options = {});

  /// Applies one mutation batch through `PatchGraph` (which interns a
  /// journal frame's label defs), then runs a maintenance pass over the
  /// applied mutations. A batch that changes nothing (all
  /// duplicates/missing) only advances the sequence.
  Result<MaintainStats> ApplyDelta(const GraphDelta& delta);

  /// One maintenance pass: adopts `new_graph` as current and patches the
  /// evidence by `footprint`, the batch from the current graph to it at a
  /// radius of at least `options().mine.d` (which bounds every candidate's
  /// eval radius). A server calls it with the footprint its cache
  /// invalidation then reads, reusing the reach arrays this pass built.
  Result<MaintainStats> Advance(std::shared_ptr<const Graph> new_graph,
                                DeltaFootprint* footprint);

  /// The maintained diversified top-k (same contents as DmineResult::topk
  /// on the current graph) and its objective F(L_k).
  const std::vector<std::shared_ptr<MinedRule>>& topk() const { return topk_; }
  double objective() const { return objective_; }
  /// The top-k as serving-layer records (rule, supp, conf).
  std::vector<RuleRecord> TopKRecords() const;

  /// The current evidence — what rule-snapshot v2 persists. Entries are in
  /// evaluation order (parents precede children).
  const RuleSetEvidence& evidence() const { return evidence_; }

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
