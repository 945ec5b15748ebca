#include "serve/serve_session.h"

#include <algorithm>
#include <numeric>

#include "common/failpoint.h"
#include "common/timer.h"
#include "graph/graph_snapshot.h"
#include "rule/metrics.h"

namespace gpar {

namespace {

/// The front half of every `ApplyDelta`: re-interns `delta.label_defs`
/// (replayed journal frames carry their own dictionary, so a frame minted
/// after the snapshot was written still resolves; live deltas have none),
/// patches `g`, and records the patch counts in `ds`.
Result<GraphPatch> IntakeDelta(const Graph& g, const GraphDelta& delta,
                               Interner* labels, DeltaStats* ds) {
  GPAR_RETURN_NOT_OK(ApplyLabelDefs(delta, labels));
  GPAR_ASSIGN_OR_RETURN(GraphPatch patch, PatchGraph(g, delta));
  ds->edges_inserted = patch.edges_inserted;
  ds->duplicates_ignored = patch.duplicates;
  ds->edges_deleted = patch.edges_deleted;
  ds->deletes_missing = patch.missing;
  return patch;
}

}  // namespace

Result<std::vector<uint32_t>> ValidateRequest(const SessionRequest& request,
                                              size_t num_rules) {
  if (request.all_centers && request.eta <= 0) {
    return Status::InvalidArgument("eta must be positive");
  }
  if (request.deadline_seconds < 0) {
    return Status::InvalidArgument("deadline_seconds must be non-negative");
  }
  std::vector<uint32_t> selected = request.rules;
  if (selected.empty()) {
    selected.resize(num_rules);
    std::iota(selected.begin(), selected.end(), 0);
    return selected;
  }
  std::sort(selected.begin(), selected.end());
  selected.erase(std::unique(selected.begin(), selected.end()),
                 selected.end());
  if (selected.back() >= num_rules) {
    return Status::InvalidArgument("rule index " +
                                   std::to_string(selected.back()) +
                                   " out of range");
  }
  return selected;
}

void AssembleEntities(const SessionRequest& request,
                      const std::vector<uint32_t>& selected,
                      std::span<const NodeId> centers, SessionReply* reply) {
  if (!request.all_centers) {
    for (size_t i = 0; i < centers.size(); ++i) {
      if (!reply->matched[i].empty()) reply->entities.push_back(centers[i]);
    }
    std::sort(reply->entities.begin(), reply->entities.end());
    reply->entities.erase(
        std::unique(reply->entities.begin(), reply->entities.end()),
        reply->entities.end());
    return;
  }
  std::vector<char> qualified(reply->rule_evals.size(), 0);
  for (uint32_t ri : selected) {
    EipRuleEval& ev = reply->rule_evals[ri];
    ev.conf = BayesFactorConf(ev.supp_r, reply->supp_qbar, ev.supp_qqbar,
                              reply->supp_q);
    if (ev.conf >= request.eta) qualified[ri] = 1;
  }
  for (size_t i = 0; i < centers.size(); ++i) {
    // The candidates are sorted, so the entities come out sorted.
    for (uint32_t ri : reply->matched[i]) {
      if (ri < qualified.size() && qualified[ri] != 0) {
        reply->entities.push_back(centers[i]);
        break;
      }
    }
  }
}

Result<SnapshotPair> ReadSnapshotPair(const std::string& graph_snapshot_path,
                                      const std::string& rules_snapshot_path) {
  GPAR_FAILPOINT("snapshot.load");
  SnapshotPair pair;
  GPAR_ASSIGN_OR_RETURN(pair.graph, ReadGraphSnapshotFile(graph_snapshot_path));
  GPAR_ASSIGN_OR_RETURN(
      RuleSetSnapshot rules,
      ReadRuleSetSnapshotAnyFile(rules_snapshot_path,
                                 pair.graph.mutable_labels()));
  pair.rules = std::move(rules.rules);
  return pair;
}

Status ServeSession::CheckWritable() const {
  if (read_only_) {
    return Status::InvalidArgument(
        "read-only session: a shard takes deltas, journals and rule "
        "refreshes from its router");
  }
  return Status::OK();
}

Result<DeltaStats> ServeSession::ApplyDelta(const GraphDelta& delta) {
  GPAR_RETURN_NOT_OK(CheckWritable());
  MutexLock writer(writer_mu_);
  return ApplyDeltaLocked(delta, /*replay_sequence=*/0);
}

Result<DeltaStats> ServeSession::ApplyDeltaLocked(const GraphDelta& delta,
                                                  uint64_t replay_sequence) {
  if (replay_sequence != 0 && replay_sequence <= sequence_) {
    return Status::InvalidArgument(
        "journal frames must follow the session's sequence");
  }
  Timer timer;
  DeltaCommit commit;
  commit.old_graph = graph_snapshot();
  GPAR_ASSIGN_OR_RETURN(
      GraphPatch patch,
      IntakeDelta(*commit.old_graph, delta, interner_.get(), &commit.stats));
  if (replay_sequence == 0 && !patch.changed()) {
    // Nothing changed, so every cached answer stays valid and nothing is
    // journaled: replay reproduces only real mutations.
    commit.stats.seconds = timer.Seconds();
    return commit.stats;
  }
  commit.new_graph = commit.old_graph;
  if (patch.changed()) {
    commit.new_graph = std::make_shared<const Graph>(std::move(patch.graph));
  }
  commit.frame.sequence =
      replay_sequence != 0 ? replay_sequence : sequence_ + 1;
  commit.frame.inserts = std::move(patch.applied);
  commit.frame.deletes = std::move(patch.applied_deletes);
  // Frames name the labels they reference, so replay against an older
  // snapshot (and a shard brought up on one) re-interns live-minted labels
  // instead of failing.
  CollectLabelDefs(*interner_, &commit.frame);
  if (journal_ != nullptr) {
    // Append-before-publish, and journal the APPLIED mutations rather than
    // the raw input: snapshot + replay re-derives this exact graph
    // bit-for-bit. An append failure leaves the served state untouched.
    // (Replay runs before the journal is attached, so it never re-appends.)
    const uint64_t bytes_before = journal_->size_bytes();
    GPAR_RETURN_NOT_OK(journal_->Append(commit.frame));
    commit.stats.journal_bytes = journal_->size_bytes() - bytes_before;
  }
  // The crash window recovery must close: the frame is on disk but not yet
  // published. Replay applies it, converging with the no-crash timeline.
  GPAR_FAILPOINT("serve.publish");
  const uint64_t sequence = commit.frame.sequence;
  commit.stats.sequence = sequence;
  const Status published = PublishDelta(&commit);
  if (commit.published) sequence_ = sequence;
  GPAR_RETURN_NOT_OK(published);
  commit.stats.seconds = timer.Seconds();
  return commit.stats;
}

Status ServeSession::AttachJournal(const std::string& path,
                                   const DeltaJournalOptions& options,
                                   JournalReplayStats* replay) {
  GPAR_RETURN_NOT_OK(CheckWritable());
  MutexLock writer(writer_mu_);
  if (journal_ != nullptr) {
    return Status::InvalidArgument("a journal is already attached");
  }
  JournalReplayStats stats;
  GPAR_ASSIGN_OR_RETURN(std::vector<GraphDelta> frames,
                        DeltaJournal::ReadAll(path, &stats));
  for (const GraphDelta& frame : frames) {
    // Replay through the normal publish step, pinned to the journaled
    // sequence — a checkpoint's floor marker (an empty frame) just carries
    // the session to its sequence.
    GPAR_RETURN_NOT_OK(ApplyDeltaLocked(frame, frame.sequence).status());
  }
  GPAR_ASSIGN_OR_RETURN(journal_, DeltaJournal::Open(path, options));
  if (replay != nullptr) *replay = stats;
  return Status::OK();
}

Status ServeSession::Checkpoint(const std::string& graph_snapshot_path) {
  MutexLock writer(writer_mu_);
  if (journal_ == nullptr) {
    return Status::InvalidArgument("checkpoint requires an attached journal");
  }
  GPAR_RETURN_NOT_OK(
      WriteGraphSnapshotFile(*graph_snapshot(), graph_snapshot_path));
  // The snapshot now carries every journaled frame's effects; compaction
  // keeps only the sequence floor.
  return journal_->Compact();
}

Status ServeSession::EnableMaintenance(const MaintainOptions& options) {
  GPAR_RETURN_NOT_OK(CheckWritable());
  MutexLock writer(writer_mu_);
  if (maintainer_ != nullptr) {
    return Status::InvalidArgument("maintenance is already enabled");
  }
  GPAR_ASSIGN_OR_RETURN(maintainer_,
                        RuleMaintainer::Seed(graph_snapshot(), q_, options));
  DeltaStats ds;
  return PublishRules(maintainer_->TopKRecords(), &ds);
}

Status ServeSession::UpdateRules(std::vector<RuleRecord> rules,
                                 DeltaStats* ds) {
  MutexLock writer(writer_mu_);
  if (!rules.empty()) {
    std::vector<Gpar> sigma;
    sigma.reserve(rules.size());
    for (const RuleRecord& r : rules) sigma.push_back(r.rule);
    GPAR_ASSIGN_OR_RETURN(const SigmaInfo info, ValidateSigma(sigma));
    if (!(info.q == q_)) {
      return Status::InvalidArgument(
          "refreshed rule set changes the session predicate q(x, y)");
    }
  }
  // An empty set skips sigma validation on purpose: a maintained top-k can
  // die under deletes and the session keeps serving zero rules.
  DeltaStats local;
  return PublishRules(std::move(rules), ds != nullptr ? ds : &local);
}

Result<bool> ServeSession::MaintainPass(const DeltaCommit& commit,
                                        std::vector<RuleRecord>* top_k) {
  if (maintainer_ == nullptr) return false;
  GPAR_ASSIGN_OR_RETURN(
      const MaintainStats ms,
      maintainer_->Advance(*commit.old_graph, commit.new_graph,
                           commit.frame.inserts, commit.frame.deletes));
  (void)ms;  // folded into maintain_stats()
  *top_k = maintainer_->TopKRecords();
  return true;
}

bool ServeSession::maintenance_enabled() const {
  MutexLock writer(writer_mu_);
  return maintainer_ != nullptr;
}

MaintainStats ServeSession::maintain_stats() const {
  MutexLock writer(writer_mu_);
  return maintainer_ != nullptr ? maintainer_->lifetime_stats()
                                : MaintainStats{};
}

bool ServeSession::journal_attached() const {
  MutexLock writer(writer_mu_);
  return journal_ != nullptr;
}

uint64_t ServeSession::journal_sequence() const {
  MutexLock writer(writer_mu_);
  return journal_ != nullptr ? journal_->last_sequence() : 0;
}

void LifetimeStats::Record(const ServeStats& stats) {
  // Relaxed: pure monotonic counters; publishing request results does not
  // ride on these stores, so no release is needed.
  const auto add = [](std::atomic<uint64_t>& c, uint64_t v) {
    c.fetch_add(v, std::memory_order_relaxed);
  };
  add(requests_, stats.requests);
  add(cache_hits_, stats.cache_hits);
  add(cache_probes_, stats.cache_probes);
  add(centers_evaluated_, stats.centers_evaluated);
  add(shards_failed_, stats.shards_failed);
  add(retries_, stats.retries);
  add(latency_nanos_, static_cast<uint64_t>(stats.latency_seconds * 1e9));
}

ServeStats LifetimeStats::Snapshot() const {
  // Relaxed: each counter is independently monotonic and the snapshot is
  // advisory — a read torn ACROSS counters is acceptable, no ordering with
  // any other memory is implied.
  const auto get = [](const std::atomic<uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  ServeStats st;
  st.requests = get(requests_);
  st.cache_hits = get(cache_hits_);
  st.cache_probes = get(cache_probes_);
  st.centers_evaluated = get(centers_evaluated_);
  st.shards_failed = get(shards_failed_);
  st.retries = get(retries_);
  st.latency_seconds = static_cast<double>(get(latency_nanos_)) * 1e-9;
  return st;
}

}  // namespace gpar
