#ifndef GPAR_MAINTAIN_MAINTAIN_COMMAND_H_
#define GPAR_MAINTAIN_MAINTAIN_COMMAND_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "graph/delta_journal.h"
#include "maintain/rule_maintainer.h"
#include "rule/rule_evidence.h"

namespace gpar {

/// A parsed `gpar_tool maintain` invocation — the wire-independent request
/// the tool builds from flags, factored out (serve_command style) so the
/// command's validation, error messages, and exit-code policy are
/// unit-testable without spawning the binary.
struct MaintainRequest {
  std::string graph_snapshot;  ///< required: graph the rules are served on
  std::string rules_snapshot;  ///< required: v1 (records) or v2 (+evidence)
  std::string journal;         ///< optional: delta journal to replay
  /// Refreshed v2 snapshot destination; empty = refresh `rules_snapshot`
  /// in place.
  std::string out;
  /// Strict mode: a journal that lost bytes to a torn tail is an error
  /// (Corruption), not a warning — refuse to maintain from known-lossy
  /// history. The tool maps strict failures to exit code 3.
  bool strict = false;
  /// Seeding inputs, used ONLY when `rules_snapshot` is v1 (no evidence
  /// section): the predicate labels to mine, plus `options.mine`. For a v2
  /// snapshot the persisted setup wins (evidence is only reusable under the
  /// parameters it was mined with) and these are ignored.
  std::string x_label, edge_label, y_label;
  MaintainOptions options;
};

/// What a maintain run did, for the tool's report lines.
struct MaintainReport {
  /// True when the rule snapshot had no evidence and the maintainer was
  /// seeded by a full mining pass instead of restored.
  bool seeded = false;
  size_t rules_in = 0;   ///< records in the input snapshot
  size_t rules_out = 0;  ///< maintained top-k written out
  JournalReplayStats journal_scan;  ///< what the journal scan found
  /// Accumulated pass stats: the seed/restore pass plus every replayed
  /// frame (see MaintainStats for the per-field semantics).
  MaintainStats stats;
  uint64_t last_sequence = 0;  ///< sequence the rule set is fresh through
  double objective = 0;        ///< F(L_k) of the maintained top-k
  std::string out_path;        ///< where the refreshed snapshot landed
  /// Non-fatal conditions a non-strict run proceeded past (torn tail).
  std::vector<std::string> warnings;
};

/// Rebuilds the MaintainOptions a v2 snapshot's evidence was produced
/// under: `base` supplies everything that is not part of the mining setup
/// (`mine.num_workers`), the setup supplies the mining parameters and
/// ablation flags. InvalidArgument when the setup carries flag bits this
/// build does not know (above bit 7), the retired prune-aware Usupp bit
/// (bit 7), or fails `ValidateMiningOptions`. Bits 3-6 are ignored.
Result<MaintainOptions> MaintainOptionsFromSetup(const MiningSetup& setup,
                                                 const MaintainOptions& base);

/// Runs one maintain invocation end to end: load the graph snapshot,
/// restore (v2) or seed (v1) the maintainer, apply every intact journal
/// frame in order (the graph snapshot must be the journal's base), and
/// write the refreshed v2 snapshot.
/// Error taxonomy (unit-covered): missing/unreadable inputs -> IoError or
/// the reader's Corruption; a v1 snapshot without predicate labels in the
/// request, unknown labels, or a setup/options mismatch -> InvalidArgument;
/// a torn journal tail under `strict` -> Corruption.
Result<MaintainReport> RunMaintain(const MaintainRequest& req);

/// The tool's exit-code policy for a failed run, factored for tests:
/// InvalidArgument is a usage error (2); anything else is 3 under
/// `--strict 1` (the run refused data it would otherwise have limped
/// past) and 1 otherwise. A successful run exits 0.
int MaintainExitCode(const Status& status, bool strict);

}  // namespace gpar

#endif  // GPAR_MAINTAIN_MAINTAIN_COMMAND_H_
