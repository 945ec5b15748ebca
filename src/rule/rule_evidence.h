#ifndef GPAR_RULE_RULE_EVIDENCE_H_
#define GPAR_RULE_RULE_EVIDENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "rule/gpar.h"

namespace gpar {

/// `EvidenceEntry::parent` value marking a root entry — one whose match
/// sets are deltas against the round-0 pools rather than another entry.
inline constexpr uint32_t kEvidenceRoot = 0xffffffffu;

/// The mining configuration a persisted evidence section was produced
/// under. Evidence is only reusable when the maintainer replays discovery
/// with the SAME parameters (the candidate stream, dedup decisions, and
/// pools all depend on them), so the section records the full setup and
/// `RuleMaintainer::FromEvidence` rejects mismatches instead of silently
/// patching against a foreign lineage. Labels ride as names (like the rule
/// records themselves) so the section stays loadable against any graph.
struct MiningSetup {
  std::string x_label;
  std::string edge_label;
  std::string y_label;
  uint32_t k = 10;
  uint32_t d = 2;
  uint64_t sigma = 1;
  double lambda = 0.5;
  uint32_t max_pattern_edges = 6;
  uint64_t seed_edge_limit = 20;
  uint64_t max_candidates_per_round = 300;
  /// The `DmineOptions` ablation booleans, bit-packed: bit 0 incremental
  /// div, 1 reduction rules, 2 bisim prefilter; bits 3-6 are retired and
  /// ignored on read, and a set bit 7 (retired) is refused. Part of
  /// the setup because flags like `enable_bisim_prefilter` change which
  /// candidates survive dedup.
  uint32_t bool_flags = 0;

  friend bool operator==(const MiningSetup&, const MiningSetup&) = default;
};

/// Match evidence for one evaluated candidate rule: the exact center sets
/// the last discovery pass computed. `pr_matches` are the candidates
/// matching P_R(x, ·) (global node ids, sorted); `ant_matches` are the
/// LCWA negatives matching the antecedent's x-component (the supp(Q & qbar)
/// side). Anti-monotonicity makes both sets deltas against the parent
/// entry's sets (roots delta against the round-0 pools), which is how they
/// serialize (see match_delta.h).
struct EvidenceEntry {
  Gpar rule;
  /// Index of the parent entry (earlier in `entries`), or `kEvidenceRoot`.
  uint32_t parent = kEvidenceRoot;
  /// False when the pass skipped the antecedent side entirely (a
  /// non-localizable other-component of Q failed its one global check);
  /// `ant_matches` is then empty and NOT evidence of emptiness.
  bool ant_probed = false;
  std::vector<NodeId> pr_matches;
  std::vector<NodeId> ant_matches;

  friend bool operator==(const EvidenceEntry&, const EvidenceEntry&) = default;
};

/// The full per-rule match evidence of one discovery pass — what snapshot
/// v2 persists alongside the rule records and what `RuleMaintainer` patches
/// under deltas instead of re-mining. Entries are in evaluation order, so
/// every parent precedes its children (the serialized deltas decode in one
/// forward sweep).
struct RuleSetEvidence {
  MiningSetup setup;
  /// Round-0 pools on the evidence graph: candidate centers matching the
  /// consequent q(x, ·), and LCWA negatives (no q-labeled out-edge).
  /// Sorted by node id.
  std::vector<NodeId> q_pool;
  std::vector<NodeId> qbar_pool;
  std::vector<EvidenceEntry> entries;

  friend bool operator==(const RuleSetEvidence&,
                         const RuleSetEvidence&) = default;
};

}  // namespace gpar

#endif  // GPAR_RULE_RULE_EVIDENCE_H_
