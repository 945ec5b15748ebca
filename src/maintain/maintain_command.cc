#include "maintain/maintain_command.h"

#include <memory>
#include <utility>

#include "graph/graph_snapshot.h"
#include "mine/levelwise.h"
#include "rule/rule_snapshot.h"

namespace gpar {

Result<MaintainOptions> MaintainOptionsFromSetup(const MiningSetup& setup,
                                                 const MaintainOptions& base) {
  if (setup.bool_flags > 0xffu) {
    return Status::InvalidArgument(
        "evidence setup carries unknown ablation flag bits (" +
        std::to_string(setup.bool_flags >> 8) +
        " above bit 7): written by a newer build?");
  }
  MaintainOptions o = base;
  o.mine.k = setup.k;
  o.mine.d = setup.d;
  o.mine.sigma = setup.sigma;
  o.mine.lambda = setup.lambda;
  o.mine.max_pattern_edges = setup.max_pattern_edges;
  o.mine.seed_edge_limit = setup.seed_edge_limit;
  o.mine.max_candidates_per_round = setup.max_candidates_per_round;
  o.mine.enable_incremental_div = (setup.bool_flags & (1u << 0)) != 0;
  o.mine.enable_reduction_rules = (setup.bool_flags & (1u << 1)) != 0;
  o.mine.enable_bisim_prefilter = (setup.bool_flags & (1u << 2)) != 0;
  o.mine.enable_parent_prune = (setup.bool_flags & (1u << 3)) != 0;
  // Bits 4-6 belonged to retired switches that never changed a result.
  o.mine.enable_prune_aware_usupp = (setup.bool_flags & (1u << 7)) != 0;
  GPAR_RETURN_NOT_OK(ValidateMiningOptions(o.mine));
  return o;
}

Result<MaintainReport> RunMaintain(const MaintainRequest& req) {
  if (req.graph_snapshot.empty()) {
    return Status::InvalidArgument("maintain: --graph-snapshot is required");
  }
  if (req.rules_snapshot.empty()) {
    return Status::InvalidArgument("maintain: --rules-snapshot is required");
  }
  GPAR_ASSIGN_OR_RETURN(Graph loaded,
                        ReadGraphSnapshotFile(req.graph_snapshot));
  auto g = std::make_shared<const Graph>(std::move(loaded));

  GPAR_ASSIGN_OR_RETURN(
      RuleSetSnapshot snap,
      ReadRuleSetSnapshotAnyFile(req.rules_snapshot, g->labels_ptr().get()));

  MaintainReport report;
  report.rules_in = snap.rules.size();

  std::unique_ptr<RuleMaintainer> maintainer;
  if (snap.has_evidence) {
    GPAR_ASSIGN_OR_RETURN(
        MaintainOptions options,
        MaintainOptionsFromSetup(snap.evidence.setup, req.options));
    GPAR_ASSIGN_OR_RETURN(
        maintainer,
        RuleMaintainer::FromEvidence(g, std::move(snap.evidence), options));
  } else {
    report.seeded = true;
    if (req.x_label.empty() || req.edge_label.empty() ||
        req.y_label.empty()) {
      return Status::InvalidArgument(
          "maintain: rule snapshot " + req.rules_snapshot +
          " has no evidence section (v1); seeding a maintainer requires "
          "--x/--edge/--y (and the mining flags) to define the predicate");
    }
    auto lookup = [&](const std::string& name, LabelId* slot) -> Status {
      *slot = g->labels().Lookup(name);
      if (*slot == kNoLabel) {
        return Status::InvalidArgument(
            "maintain: label '" + name +
            "' does not occur in the graph snapshot");
      }
      return Status::OK();
    };
    Predicate q;
    GPAR_RETURN_NOT_OK(lookup(req.x_label, &q.x_label));
    GPAR_RETURN_NOT_OK(lookup(req.edge_label, &q.edge_label));
    GPAR_RETURN_NOT_OK(lookup(req.y_label, &q.y_label));
    GPAR_ASSIGN_OR_RETURN(maintainer,
                          RuleMaintainer::Seed(g, q, req.options));
  }

  if (!req.journal.empty()) {
    // Scan first so strict mode can refuse lossy history up front (and so
    // the report carries what the scan found even when zero frames apply).
    GPAR_ASSIGN_OR_RETURN(
        DeltaJournalCursor cursor,
        DeltaJournalCursor::Open(req.journal, &report.journal_scan));
    if (report.journal_scan.tail_truncated) {
      const std::string what =
          "journal " + req.journal + " lost " +
          std::to_string(report.journal_scan.dropped_bytes) +
          " trailing bytes to a torn tail";
      if (req.strict) {
        return Status::Corruption(
            "maintain: " + what + "; refusing to maintain in strict mode");
      }
      report.warnings.push_back(what + " (replaying the intact prefix)");
    }
    (void)cursor;  // scan-only: ReplayJournal re-reads through its own cursor
    GPAR_ASSIGN_OR_RETURN(const MaintainStats replayed,
                          maintainer->ReplayJournal(req.journal));
    (void)replayed;  // folded into lifetime_stats(), reported below
  }

  report.stats = maintainer->lifetime_stats();
  report.last_sequence = maintainer->last_sequence();
  report.objective = maintainer->objective();

  const std::vector<RuleRecord> records = maintainer->TopKRecords();
  report.rules_out = records.size();
  report.out_path = req.out.empty() ? req.rules_snapshot : req.out;
  GPAR_RETURN_NOT_OK(WriteRuleSetSnapshotV2File(
      records, maintainer->evidence(), g->labels(), report.out_path));
  return report;
}

int MaintainExitCode(const Status& status, bool strict) {
  if (status.ok()) return 0;
  if (status.code() == StatusCode::kInvalidArgument) return 2;
  return strict ? 3 : 1;
}

}  // namespace gpar
