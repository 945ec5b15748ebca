#include "serve/serve_session.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/failpoint.h"
#include "common/timer.h"
#include "graph/graph_snapshot.h"
#include "rule/metrics.h"

namespace gpar {

namespace {

/// The front half of every `ApplyDelta`: validates the whole batch, then
/// interns `delta.label_defs` (replayed journal frames carry their own
/// dictionary, so a frame minted after the snapshot was written still
/// resolves; a live batch defines the labels it mints), patches `g`, and
/// records the patch counts in `ds`. A rejected batch interns nothing, so
/// the dictionary never holds a label no journal frame defines.
Result<GraphPatch> IntakeDelta(const Graph& g, const GraphDelta& delta,
                               Interner* labels, DeltaStats* ds) {
  GPAR_RETURN_NOT_OK(ValidateDelta(g, delta));
  GPAR_RETURN_NOT_OK(ApplyLabelDefs(delta, labels));
  GPAR_ASSIGN_OR_RETURN(GraphPatch patch, PatchGraph(g, delta));
  ds->edges_inserted = patch.edges_inserted;
  ds->duplicates_ignored = patch.duplicates;
  ds->edges_deleted = patch.edges_deleted;
  ds->deletes_missing = patch.missing;
  return patch;
}

/// A request's rule selection against generation `st` — empty selects
/// all, otherwise sorted, deduplicated and range-checked — after rejecting
/// η <= 0 for `all_centers` and point-lookup centers outside `st`'s graph.
Result<std::vector<uint32_t>> ValidateRequest(const SessionRequest& request,
                                              const Generation& st) {
  if (request.all_centers && request.eta <= 0) {
    return Status::InvalidArgument("eta must be positive");
  }
  if (!request.all_centers) {
    for (NodeId c : request.centers) {
      if (c >= st.graph->num_nodes()) {
        return Status::InvalidArgument("center id " + std::to_string(c) +
                                       " out of range");
      }
    }
  }
  const size_t num_rules = st.rules->sigma.size();
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

/// Fills `reply->entities` once `reply->matched` holds one row per entry
/// of `centers`. Point lookups: the distinct centers with a matched rule.
/// `all_centers` (`centers` = the sorted candidates): computes each
/// selected rule's BayesFactorConf from the supports summed into `reply`
/// — the one place confidence is assembled, whether the sums come from
/// one slice or from every shard (Section 5.1) — and keeps the
/// candidates matching some rule with confidence >= η.
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
      if (qualified[ri] != 0) {
        reply->entities.push_back(centers[i]);
        break;
      }
    }
  }
}

}  // namespace

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

Status ServeSession::Start(Graph g, std::vector<RuleRecord> rules) {
  auto graph = std::make_shared<const Graph>(std::move(g));
  std::shared_ptr<const ServedRules> served =
      BuildServedRules(std::move(rules));
  GPAR_ASSIGN_OR_RETURN(const SigmaInfo info, ValidateSigma(served->sigma));
  q_ = info.q;
  pq_ = q_.ToPattern();
  interner_ = graph->labels_ptr();
  auto span = graph->nodes_with_label(q_.x_label);
  candidates_.assign(span.begin(), span.end());
  auto first = DeriveGeneration(pq_, nullptr, std::move(graph),
                                std::move(served));
  // Start runs single-threaded, but `state_` is guarded and the lock is
  // uncontended — take it rather than poke an analysis hole.
  MutexLock lock(state_mu_);
  state_ = std::move(first);
  return Status::OK();
}

Result<SessionReply> ServeSession::Query(const SessionRequest& request) {
  Timer timer;
  // Pin the generation FIRST: the selection must be normalized against the
  // same rule set the request will match with, and every slice answers
  // from it.
  const std::shared_ptr<const Generation> st = AcquireGeneration();
  GPAR_ASSIGN_OR_RETURN(std::vector<uint32_t> selected,
                        ValidateRequest(request, *st));
  SessionReply reply;
  Gather(*st, request, selected, &reply);
  reply.stats.requests = 1;
  AssembleEntities(request, selected,
                   request.all_centers ? candidates_ : request.centers,
                   &reply);
  reply.stats.latency_seconds = timer.Seconds();
  lifetime_.Record(reply.stats);
  return reply;
}

std::shared_ptr<const Generation> ServeSession::AcquireGeneration() const {
  MutexLock lock(state_mu_);
  return state_;
}

std::shared_ptr<const Graph> ServeSession::graph_snapshot() const {
  return AcquireGeneration()->graph;
}

std::vector<RuleRecord> ServeSession::rules() const {
  return AcquireGeneration()->rules->records;
}

uint64_t ServeSession::delta_sequence() const {
  MutexLock writer(writer_mu_);
  return sequence_;
}

Result<DeltaStats> ServeSession::ApplyDelta(const GraphDelta& delta) {
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
  DeltaStats ds;
  const std::shared_ptr<const Generation> st = AcquireGeneration();
  GPAR_ASSIGN_OR_RETURN(GraphPatch patch,
                        IntakeDelta(*st->graph, delta, interner_.get(), &ds));
  const bool changed = patch.changed();
  if (replay_sequence == 0 && !changed) {
    // Nothing changed, so every cached answer stays valid and nothing is
    // journaled: replay reproduces only real mutations.
    ds.seconds = timer.Seconds();
    return ds;
  }
  GraphDelta frame;
  frame.sequence = replay_sequence != 0 ? replay_sequence : sequence_ + 1;
  frame.inserts = std::move(patch.applied);
  frame.deletes = std::move(patch.applied_deletes);
  // Frames name the labels they reference, so replay against an older
  // snapshot re-interns live-minted labels instead of failing.
  CollectLabelDefs(*interner_, &frame);
  if (journal_ != nullptr) {
    // Append-before-publish, and journal the APPLIED mutations rather than
    // the raw input: snapshot + replay re-derives this exact graph
    // bit-for-bit. An append failure leaves the served state untouched.
    // (Replay runs before the journal is attached, so it never re-appends.)
    const uint64_t bytes_before = journal_->size_bytes();
    GPAR_RETURN_NOT_OK(journal_->Append(frame));
    ds.journal_bytes = journal_->size_bytes() - bytes_before;
  }
  // The crash window recovery must close: the frame is on disk but not yet
  // published. Replay applies it, converging with the no-crash timeline.
  GPAR_FAILPOINT("serve.publish");
  ds.sequence = frame.sequence;
  // A replayed floor marker changes nothing a reader can see: it only
  // carries the sequence.
  if (changed) {
    auto graph = std::make_shared<const Graph>(std::move(patch.graph));
    // Maintain-on-ApplyDelta: the pass runs before the publish, so queries
    // observe the new graph together with the rule set that is fresh for
    // it. A failed pass publishes nothing.
    std::shared_ptr<const ServedRules> rules;
    if (maintainer_ != nullptr) {
      GPAR_RETURN_NOT_OK(maintainer_
                             ->Advance(*st->graph, graph, frame.inserts,
                                       frame.deletes)
                             .status());
      std::vector<RuleRecord> top_k = maintainer_->TopKRecords();
      if (top_k != st->rules->records) {
        rules = BuildServedRules(std::move(top_k));
        ds.rules_refreshed = 1;
      }
    }
    Publish(*st, std::move(graph), frame.inserts, frame.deletes,
            std::move(rules), &ds);
  }
  sequence_ = frame.sequence;
  ds.seconds = timer.Seconds();
  return ds;
}

void ServeSession::PublishRules(std::vector<RuleRecord> rules,
                                DeltaStats* ds) {
  const std::shared_ptr<const Generation> st = AcquireGeneration();
  if (rules == st->rules->records) return;
  Publish(*st, st->graph, {}, {}, BuildServedRules(std::move(rules)), ds);
  ds->rules_refreshed = 1;
}

void ServeSession::Publish(const Generation& old,
                           std::shared_ptr<const Graph> graph,
                           std::span<const EdgeInsert> applied,
                           std::span<const EdgeDelete> deleted,
                           std::shared_ptr<const ServedRules> rules,
                           DeltaStats* ds) {
  if (rules == nullptr) rules = old.rules;
  std::shared_ptr<const Generation> next =
      DeriveGeneration(pq_, &old, std::move(graph), std::move(rules));
  const GenerationChange change(q_, old, *next, applied, deleted);
  ds->rules_carried += change.rules_carried();
  for (const std::unique_ptr<CacheSlice>& slice : slices_) {
    slice->Adopt(change, ds);
  }
  MutexLock lock(state_mu_);
  state_ = std::move(next);
}

Status ServeSession::AttachJournal(const std::string& path,
                                   const DeltaJournalOptions& options,
                                   JournalReplayStats* replay) {
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
  std::ostringstream snapshot(std::ios::binary);
  GPAR_RETURN_NOT_OK(WriteGraphSnapshot(*graph_snapshot(), snapshot));
  // Compact only once the snapshot is durable: a crash before the rename
  // keeps the old snapshot and the whole journal; after it, the new
  // snapshot carries every journaled frame's effects, so compaction keeps
  // only the sequence floor.
  GPAR_RETURN_NOT_OK(
      ReplaceFileDurably(graph_snapshot_path, std::move(snapshot).str()));
  return journal_->Compact();
}

Status ServeSession::EnableMaintenance(const MaintainOptions& options) {
  MutexLock writer(writer_mu_);
  if (maintainer_ != nullptr) {
    return Status::InvalidArgument("maintenance is already enabled");
  }
  GPAR_ASSIGN_OR_RETURN(maintainer_,
                        RuleMaintainer::Seed(graph_snapshot(), q_, options));
  DeltaStats ds;
  PublishRules(maintainer_->TopKRecords(), &ds);
  return Status::OK();
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
  PublishRules(std::move(rules), ds != nullptr ? ds : &local);
  return Status::OK();
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

}  // namespace gpar
