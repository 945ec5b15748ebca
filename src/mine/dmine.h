#ifndef GPAR_MINE_DMINE_H_
#define GPAR_MINE_DMINE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/stats.h"
#include "mine/mined_rule.h"
#include "parallel/bsp.h"
#include "rule/gpar.h"

namespace gpar {

/// Options for the DMine algorithm (Section 4.2). The three `enable_*`
/// flags switch the optimizations the paper ablates: DMineno is DMine with
/// all three disabled ("its counterpart without optimization (incremental,
/// reductions and bisimilarity checking)", Section 6).
struct DmineOptions {
  uint32_t num_workers = 4;  ///< n-1 workers; the coordinator is implicit
  uint32_t k = 10;           ///< size of the diversified top-k
  uint32_t d = 2;            ///< radius bound r(P_R, x) <= d
  uint64_t sigma = 1;        ///< support threshold supp(R, G) >= sigma
  double lambda = 0.5;       ///< diversification balance in F
  uint32_t max_pattern_edges = 6;   ///< growth cap per pattern
  size_t seed_edge_limit = 20;      ///< most frequent edge patterns used
  size_t max_candidates_per_round = 300;  ///< cap on |M| sent to workers
  bool enable_incremental_div = true;
  bool enable_reduction_rules = true;
  bool enable_bisim_prefilter = true;
  /// Levelwise parent-match pruning: workers evaluate an extension only at
  /// the centers where its parent rule matched (anti-monotonicity, §4.2)
  /// instead of re-testing every owned center each round. Sound — pruned and
  /// unpruned runs produce identical supports, confidences, and top-k — and
  /// kept as an ablation flag for the Exp-1 benches.
  bool enable_parent_prune = true;
  /// Prune-aware Usupp (Lemma 3 tightening): count toward Usupp only the
  /// matched centers whose d-neighborhood can still grow
  /// (`center_hops_available > 0`) instead of all of supp_r. HEURISTIC,
  /// not a proven bound: a saturated-N_d center can still match an
  /// extension — backward extensions add no node, and even a forward
  /// extension's new node may map to an unused node already inside N_d —
  /// so the tightened Usupp can undercount and, in principle, over-prune.
  /// It therefore ships off by default; the PruneAwareUsuppEquivalence
  /// property battery asserts it never changes the reduced output on the
  /// tested configurations.
  bool enable_prune_aware_usupp = false;
};

/// Returns `base` with every optimization disabled (the paper's DMineno).
/// `enable_parent_prune` is left untouched: it is this implementation's own
/// ablation axis, not among the paper's three.
DmineOptions DmineNoOptions(DmineOptions base = {});

/// Counters reported alongside the result.
struct DmineStats {
  uint64_t supp_q = 0;
  uint64_t supp_qbar = 0;
  size_t candidates_generated = 0;  ///< extensions produced before dedup
  size_t candidates_verified = 0;   ///< sent to workers for support counting
  size_t accepted = 0;              ///< entered Σ (supp >= sigma, nontrivial)
  size_t automorphic_merged = 0;    ///< deduped by bisim/iso grouping
  size_t pruned_by_reduction = 0;
  size_t trivial_discarded = 0;     ///< logic rules (supp(Q~q) = 0)
  uint64_t bisim_tests = 0;
  uint64_t iso_tests = 0;
  /// Worker-loop ExistsAt probes (both the P_R and the x-component side).
  uint64_t exists_calls = 0;
  /// Centers the workers never probed because the candidate's parent rule
  /// did not match there (0 when `enable_parent_prune` is off or every
  /// round-1 candidate exhausts its seed pool).
  uint64_t centers_skipped_by_parent = 0;
  /// Raw candidate proposals emitted by each worker across all rounds,
  /// indexed by worker id (empty when the run stopped before round 1). The
  /// sum exceeds `candidates_generated` exactly by `cross_fragment_merged`.
  std::vector<uint64_t> proposals_per_worker;
  /// Proposals discarded because another fragment already proposed the same
  /// extension of the same parent (same (parent, ext_ordinal) key) — the
  /// coordinator's cross-fragment duplicate merge, upstream of the
  /// automorphism dedup that feeds `automorphic_merged`. Single-owner
  /// assignment keeps this at 0 in real runs; a nonzero value is a tripwire
  /// for a double-proposing ownership bug (tracked in BENCH_dmine.json).
  size_t cross_fragment_merged = 0;
  /// Coordinator CPU seconds spent producing each round's verified
  /// candidate set: proposal merging + automorphism dedup + cap + the
  /// global check of antecedent components without x.
  double coordinator_merge_seconds = 0;
  /// Worker probes whose search plan came from the shared read-only plan
  /// store: each hit is a per-worker pattern expansion + plan construction
  /// that was not repeated.
  uint64_t plans_shared_hits = 0;
  /// Distinct patterns the coordinator planned into the shared store.
  size_t plans_prepared = 0;
  /// Lineage (parent match-set) message volume, worker -> coordinator,
  /// under `enable_parent_prune`: what the raw center lists would have
  /// cost, and what the match-set-delta encoding actually shipped (see
  /// match_delta.h). Both 0 with pruning off (no lineage travels).
  uint64_t evidence_bytes_full = 0;
  uint64_t evidence_bytes_delta = 0;
};

/// Output of Dmine: the diversified top-k, its objective value F(L_k), and
/// run statistics/timings.
struct DmineResult {
  std::vector<std::shared_ptr<MinedRule>> topk;
  double objective = 0;
  DmineStats stats;
  ParallelTimes times;
};

/// Discovers top-k diversified GPARs pertaining to `q` in `g` (problem DMP,
/// Section 4.2) with DMine's BSP structure. The round loop is
/// `RunLevelwise` (levelwise.h); this function partitions the graph into
/// `num_workers` fragments with d-hop locality and supplies the BSP
/// evaluation strategy: in round r each worker first *proposes* candidate
/// extensions from its locally surviving parents and then counts the
/// merged round candidates' supports over its owned centers.
///
/// Worker/coordinator candidate contract (round r):
///  1. Worker i enumerates `GenerateExtensions(parent)` for each parent
///     rule it *owns*: a parent is owned by exactly one of the fragments
///     where it survives (`frag_pr_centers[j]` non-empty; round-robin over
///     the survivors by parent index, derived locally from the broadcast
///     lineage — round 1 extends the bare predicate from the q-pool), and
///     ships one `CandidateProposal` per extension.
///  2. The coordinator re-orders the per-worker proposal streams by their
///     exact (parent, ext_ordinal) key, collapsing any duplicate keys
///     (`MergeProposals`, `cross_fragment_merged` — zero under single
///     ownership; nonzero flags a double-proposing assignment bug), then
///     merges *automorphic* candidates proposed by different workers with
///     the bisim-prefiltered exact test (`DedupCandidates`,
///     `automorphic_merged`) and applies `max_candidates_per_round`.
/// Because every extendable parent survives in at least one fragment and
/// its owner enumerates the full deterministic extension set, the merged,
/// ordered candidate stream is byte-identical to the sequential generator's
/// (`RuleMaintainer::Seed`) — generation cost sits in the round makespan,
/// not in `coordinator_seconds`, and no result changes (pools, supports,
/// confidences, diversified top-k).
Result<DmineResult> Dmine(const Graph& g, const Predicate& q,
                          const DmineOptions& options = {});

/// Parent index carried by round-1 proposals: extensions of the bare
/// predicate q(x, y), which has no MinedRule parent. Sorts after all real
/// parent indices; rounds never mix root and non-root proposals.
inline constexpr size_t kRootParent = static_cast<size_t>(-1);

/// One worker-proposed candidate extension — the compact BSP message of the
/// generation half-round. (parent, ext_ordinal) identifies the extension
/// exactly: `GenerateExtensions` is deterministic, so equal keys denote
/// equal grown patterns no matter which fragment proposed them. The
/// structural hash guards that invariant at merge time — duplicate keys
/// only collapse when the checksums agree; a mismatch keeps both proposals
/// for the exact automorphism tests instead of silently dropping a rule.
/// `local_evidence` is the proposing fragment's support evidence (its
/// surviving parent-center count; summed across proposers on merge). It is
/// diagnostic payload for tests and tripwire forensics only — under single
/// ownership it covers one fragment, so it bounds nothing global, and the
/// support assembly deliberately ignores it: exact supports come from the
/// evaluation round.
struct CandidateProposal {
  size_t parent = kRootParent;  ///< index into this round's parent list
  uint32_t ext_ordinal = 0;     ///< index into GenerateExtensions(parent)
  uint64_t structural_hash = 0; ///< StructuralHash of the grown P_R
  uint32_t local_evidence = 0;  ///< surviving parent centers at the proposer
  Gpar rule;                    ///< the grown rule, materialized worker-side
};

/// Coordinator half of the contract, step 2a: collapses per-worker proposal
/// vectors into one stream with cross-fragment duplicates (equal
/// (parent, ext_ordinal) AND equal structural checksum) merged — first
/// proposer's rule kept, evidence summed, `stats->cross_fragment_merged`
/// incremented — ordered by (parent, ext_ordinal) ascending, i.e. exactly
/// the order the sequential generator emits. Exposed for tests.
std::vector<CandidateProposal> MergeProposals(
    std::vector<std::vector<CandidateProposal>> per_worker, DmineStats* stats);

/// Generates the round-r candidate extensions of `antecedent` (designated
/// x, y; `q_label` consequent) from the seed-edge alphabet: new edges whose
/// farther endpoint sits at hop r from x in P_R. Exposed for tests.
std::vector<Gpar> GenerateExtensions(const Pattern& antecedent,
                                     LabelId q_label, uint32_t round_r,
                                     uint32_t max_edges,
                                     const std::vector<EdgePatternStat>& seeds);

/// Deduplicates `fresh` against itself and `seen_buckets` (buckets keyed by
/// the isomorphism-invariant `IsomorphismBucketHash`, then optionally
/// bisimulation-prefiltered designated isomorphism), keeping at most
/// `max_keep` candidates. The cap is applied *before* a pattern is
/// registered in `seen_buckets`: a candidate dropped by the cap is not
/// poisoned as "seen" and may re-enter in a later round (the pre-cap
/// registration bug silently deduped such candidates forever). Returns the
/// kept candidates' indices into `fresh`, ascending. Exposed for tests.
std::vector<size_t> DedupCandidates(
    const std::vector<Gpar>& fresh, size_t max_keep,
    std::unordered_map<uint64_t, std::vector<Pattern>>* seen_buckets,
    bool bisim_prefilter, DmineStats* stats);

}  // namespace gpar

#endif  // GPAR_MINE_DMINE_H_
