#ifndef GPAR_RULE_RULE_SNAPSHOT_H_
#define GPAR_RULE_RULE_SNAPSHOT_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "rule/gpar.h"
#include "rule/rule_evidence.h"

namespace gpar {

/// One stored rule: the GPAR plus the mining metadata a server needs to
/// rank/filter without re-evaluating (supp(R, G) and the BF/LCWA confidence
/// at mining time). Metadata is advisory — live confidences on a patched
/// graph come from an `all_centers` `ServeSession::Query`.
struct RuleRecord {
  Gpar rule;
  uint64_t supp = 0;
  double conf = 0;

  friend bool operator==(const RuleRecord&, const RuleRecord&) = default;
};

/// Versioned, checksummed binary snapshot of a mined rule set — the second
/// half of the serving subsystem's at-rest format (graph_snapshot.h holds
/// the graph half and the framing conventions).
///
/// Layout (little-endian):
/// ```
/// u64 magic "GPARRULE"   u32 version   u64 payload_size   u64 fnv1a64
/// payload:
///   u32 rule_count, rule_count x {
///     u64 supp, f64 conf (IEEE-754 bits),
///     u32 text_len, bytes   // Gpar::Serialize — the pattern codec block
///   }
///   -- version 2 only: the match-evidence section --
///   setup: 3 x string (x/edge/y label names), u32 k, u32 d, u64 sigma,
///          f64 lambda, u32 max_pattern_edges, u64 seed_edge_limit,
///          u64 max_candidates_per_round, u32 bool_flags
///   u32 q_pool_count + values, u32 qbar_pool_count + values
///   u32 entry_count, entry_count x {
///     u32 text_len + bytes (Gpar::Serialize), u32 parent, u8 ant_probed,
///     pr delta, ant delta   // match_delta.h wire form, decoded against
///                           // the parent entry's sets (root: the pools)
///   }
/// ```
/// Patterns ride in the pattern codec's text form, so records are
/// self-describing (label *names*, not dictionary ids) and a rule snapshot
/// can be loaded against any graph: `ReadRuleSetSnapshotAny` interns the names
/// through the target graph's dictionary. Write -> read -> write is
/// byte-identical (the codec's text form is canonical for a given rule).
///
/// Version 1 (no evidence) remains the write format for plain rule sets —
/// v1 files stay byte-identical to earlier releases — and the readers
/// accept both versions.
Status WriteRuleSetSnapshot(const std::vector<RuleRecord>& rules,
                            const Interner& labels, std::ostream& os);
Status WriteRuleSetSnapshotFile(const std::vector<RuleRecord>& rules,
                                const Interner& labels,
                                const std::string& path);

/// A decoded snapshot of either version: the records, plus the evidence
/// section when the file carried one (v2).
struct RuleSetSnapshot {
  std::vector<RuleRecord> rules;
  bool has_evidence = false;
  RuleSetEvidence evidence;
};

/// Writes a v2 snapshot: the rule records plus `evidence`. Evidence match
/// sets are delta-encoded against their parent entry (entries must be in
/// evaluation order — every `parent` index earlier than its child — which
/// is the order `RuleMaintainer::evidence()` keeps them in).
Status WriteRuleSetSnapshotV2(const std::vector<RuleRecord>& rules,
                              const RuleSetEvidence& evidence,
                              const Interner& labels, std::ostream& os);
Status WriteRuleSetSnapshotV2File(const std::vector<RuleRecord>& rules,
                                  const RuleSetEvidence& evidence,
                                  const Interner& labels,
                                  const std::string& path);

/// Reads either version; a v2 file's evidence section is decoded and
/// validated (parent ordering, delta reconstruction), not skipped.
Result<RuleSetSnapshot> ReadRuleSetSnapshotAny(std::istream& is,
                                               Interner* labels);
Result<RuleSetSnapshot> ReadRuleSetSnapshotAnyFile(const std::string& path,
                                                   Interner* labels);

}  // namespace gpar

#endif  // GPAR_RULE_RULE_SNAPSHOT_H_
