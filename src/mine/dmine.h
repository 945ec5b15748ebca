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
#include "rule/rule_evidence.h"

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
};

/// Returns `base` with every optimization disabled (the paper's DMineno).
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
  /// Probes of the coordinator's whole-graph check of antecedent
  /// components without x (not part of `exists_calls`).
  uint64_t global_exists_calls = 0;
  /// Centers the workers never probed because the candidate's parent rule
  /// did not match there (0 when every candidate is a round-1 extension of
  /// the bare predicate, probed over the whole seed pool).
  uint64_t centers_skipped_by_parent = 0;
  /// Candidate extensions generated by each worker across all rounds,
  /// indexed by worker id (empty when the run stopped before round 1). Each
  /// parent has one owner, so the sum is `candidates_generated`.
  std::vector<uint64_t> proposals_per_worker;
  /// Coordinator CPU seconds spent producing each round's verified
  /// candidate set: concatenating the workers' extensions + automorphism
  /// dedup + cap + the global check of antecedent components without x.
  double coordinator_merge_seconds = 0;
  /// Worker probes whose search plan came from the shared read-only plan
  /// store: each hit is a per-worker pattern expansion + plan construction
  /// that was not repeated.
  uint64_t plans_shared_hits = 0;
  /// Distinct patterns the coordinator planned into the shared store.
  size_t plans_prepared = 0;
  /// Wall seconds of the `PartitionGraph` call that assigns the centers to
  /// the workers (outside both the makespan and the coordinator time).
  double partition_seconds = 0;
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
/// evaluation strategy: in round r each worker first generates candidate
/// extensions from its locally surviving parents and then counts the
/// round candidates' supports over its owned centers. A candidate
/// is probed only at the centers where its parent rule matched: support is
/// anti-monotone under extension, so every other center fails (`NaiveMine`,
/// which probes the whole q-pool, is the unpruned oracle).
///
/// Worker/coordinator candidate contract (round r):
///  1. Each parent rule has one owner among the fragments where it survives
///     (`frag_pr_centers[j]` non-empty): round-robin over the survivors by
///     parent index, which every worker derives from the lineage it holds.
///     Round 1 extends the bare predicate from the q-pool. The owner writes
///     `GenerateExtensions(parent)` into the parent's slot.
///  2. The coordinator concatenates the slots in parent order, merges
///     automorphic candidates with the bisim-prefiltered exact test
///     (`DedupCandidates`, `automorphic_merged`) and applies
///     `max_candidates_per_round`.
/// Every extendable parent survives in at least one fragment and its owner
/// enumerates the full deterministic extension set, so the concatenated
/// stream equals the sequential generator's (the tests' levelwise oracle,
/// tests/seed_oracle.h). Generation cost sits in the round makespan, not
/// in `coordinator_seconds`, and no result changes (pools, supports,
/// confidences, diversified top-k).
///
/// A non-null `evidence` receives the run's match evidence, the baseline
/// `RuleMaintainer` patches: `Dmine` forwards it to `RunLevelwise`, which
/// records the global pools and match sets the coordinator merges from
/// the workers' sorted runs. Its `setup` is left to the caller. Capture
/// adds no probe.
Result<DmineResult> Dmine(const Graph& g, const Predicate& q,
                          const DmineOptions& options = {},
                          RuleSetEvidence* evidence = nullptr);

/// Parent index of round-1 candidates: extensions of the bare predicate
/// q(x, y), which has no MinedRule parent. Rounds never mix root and
/// non-root candidates.
inline constexpr size_t kRootParent = static_cast<size_t>(-1);

/// Generates the one-edge extensions of `antecedent` (designated x, y;
/// `q_label` consequent) from the seed-edge alphabet: a new node attached
/// within hop d-1 of x in P_R, or a new edge between existing nodes. Only
/// rules whose P_R and antecedent x-component keep radius <= `d` around x
/// are returned (`Gpar::eval_radius`). Exposed for tests.
std::vector<Gpar> GenerateExtensions(const Pattern& antecedent,
                                     LabelId q_label, uint32_t d,
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
