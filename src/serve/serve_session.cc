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

void ServeSession::SplitCandidates(std::vector<uint32_t> owner,
                                   uint32_t num_slices,
                                   const RuleServerOptions& options) {
  // The candidates are sorted, so each slice's list comes out sorted too.
  std::vector<std::vector<NodeId>> owned(num_slices);
  ordinal_.resize(candidates_.size());
  for (size_t i = 0; i < candidates_.size(); ++i) {
    ordinal_[i] = static_cast<uint32_t>(owned[owner[i]].size());
    owned[owner[i]].push_back(candidates_[i]);
  }
  owner_ = std::move(owner);
  for (std::vector<NodeId>& centers : owned) {
    slices_.push_back(
        std::make_unique<CacheSlice>(q_, std::move(centers), options));
  }
  if (num_slices > 1) router_pool_ = std::make_unique<ThreadPool>(num_slices);
}

size_t ServeSession::CandidateIndex(NodeId center) const {
  auto it = std::lower_bound(candidates_.begin(), candidates_.end(), center);
  return it != candidates_.end() && *it == center
             ? static_cast<size_t>(it - candidates_.begin())
             : candidates_.size();
}

uint32_t ServeSession::OwnerOf(NodeId center) const {
  const size_t i = CandidateIndex(center);
  return i < candidates_.size() ? owner_[i]
                                : static_cast<uint32_t>(slices_.size());
}

void ServeSession::Gather(const Generation& st, const SessionRequest& request,
                          const std::vector<uint32_t>& selected,
                          SessionReply* reply) {
  const auto k = static_cast<uint32_t>(slices_.size());
  std::vector<SliceCall> calls(k);
  // Point lookups: per requested center, its candidate index. Centers
  // that are not candidates match nothing and reach no slice.
  std::vector<size_t> index;
  if (!request.all_centers) {
    index.reserve(request.centers.size());
    for (NodeId c : request.centers) {
      const size_t i = index.emplace_back(CandidateIndex(c));
      if (i < candidates_.size()) {
        calls[owner_[i]].ordinals.push_back(ordinal_[i]);
      }
    }
    for (SliceCall& call : calls) {
      std::vector<uint32_t>& ords = call.ordinals;
      std::sort(ords.begin(), ords.end());
      const auto last = std::unique(ords.begin(), ords.end());
      call.repeats = last != ords.end();
      ords.erase(last, ords.end());
    }
  }
  std::vector<uint32_t> active;
  for (uint32_t s = 0; s < k; ++s) {
    if (request.all_centers || !calls[s].ordinals.empty()) active.push_back(s);
  }
  auto run = [&](uint32_t j) {
    SliceCall& call = calls[active[j]];
    slices_[active[j]]->Answer(st, request, call.ordinals, selected,
                               &call.reply);
  };
  // A single call (the common point-lookup case under center affinity)
  // skips the router pool entirely and runs on the caller.
  if (active.size() == 1) {
    run(0);
  } else if (active.size() > 1) {
    ParallelFor(*router_pool_, static_cast<uint32_t>(active.size()), run);
  }
  for (uint32_t s : active) {
    const ServeStats& sub = calls[s].reply.stats;
    reply->stats.cache_hits += sub.cache_hits;
    reply->stats.cache_probes += sub.cache_probes;
    reply->stats.centers_evaluated += sub.centers_evaluated;
  }

  if (!request.all_centers) {
    reply->matched.resize(request.centers.size());
    for (size_t p = 0; p < index.size(); ++p) {
      const size_t i = index[p];
      if (i == candidates_.size()) continue;
      SliceCall& call = calls[owner_[i]];
      const std::vector<uint32_t>& ords = call.ordinals;
      const auto j = static_cast<size_t>(
          std::ranges::lower_bound(ords, ordinal_[i]) - ords.begin());
      // A repeated center shares its row, so it is copied, not moved.
      if (call.repeats) {
        reply->matched[p] = call.reply.matched[j];
      } else {
        reply->matched[p] = std::move(call.reply.matched[j]);
      }
    }
    return;
  }
  // Center ownership is disjoint, so the slices' partial supports sum to
  // the global ones; confidences come from the global sums (Query) —
  // slice-local confidences are meaningless.
  reply->matched.resize(candidates_.size());
  for (size_t i = 0; i < candidates_.size(); ++i) {
    reply->matched[i] = std::move(calls[owner_[i]].reply.matched[ordinal_[i]]);
  }
  reply->rule_evals.assign(st.rules->sigma.size(), {});
  for (const SliceCall& call : calls) {
    const SessionReply& sub = call.reply;
    reply->supp_q += sub.supp_q;
    reply->supp_qbar += sub.supp_qbar;
    for (uint32_t ri : selected) {
      reply->rule_evals[ri].supp_r += sub.rule_evals[ri].supp_r;
      reply->rule_evals[ri].supp_qqbar += sub.rule_evals[ri].supp_qqbar;
    }
  }
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

size_t ServeSession::cached_centers() const {
  size_t total = 0;
  for (const auto& slice : slices_) total += slice->cached_centers();
  return total;
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
  GPAR_ASSIGN_OR_RETURN(GraphPatch patch, PatchGraph(*st->graph, delta));
  ds.edges_inserted = patch.edges_inserted;
  ds.duplicates_ignored = patch.duplicates;
  ds.edges_deleted = patch.edges_deleted;
  ds.deletes_missing = patch.missing;
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
  CollectLabelDefs(st->graph->labels(), &frame);
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
    // One footprint feeds both the maintenance pass and every slice's
    // invalidation walk. Its radius covers the served rules and, when
    // maintained, the mining radius d, which bounds every rule a refresh
    // can publish.
    uint32_t radius = st->rules->radius;
    if (maintainer_ != nullptr) {
      radius = std::max(radius, maintainer_->options().mine.d);
    }
    DeltaFootprint footprint(*st->graph, *graph, frame.inserts, frame.deletes,
                             radius);
    // Maintain-on-ApplyDelta: the pass runs before the publish, so queries
    // observe the new graph together with the rule set that is fresh for
    // it. A failed pass publishes nothing.
    std::shared_ptr<const ServedRules> rules;
    if (maintainer_ != nullptr) {
      GPAR_RETURN_NOT_OK(maintainer_->Advance(graph, &footprint).status());
      std::vector<RuleRecord> top_k = maintainer_->TopKRecords();
      if (top_k != st->rules->records) {
        rules = BuildServedRules(std::move(top_k));
        ds.rules_refreshed = 1;
      }
    }
    Publish(*st, std::move(graph), &footprint, std::move(rules), &ds);
  }
  sequence_ = frame.sequence;
  ds.seconds = timer.Seconds();
  return ds;
}

void ServeSession::PublishRules(std::vector<RuleRecord> rules,
                                DeltaStats* ds) {
  const std::shared_ptr<const Generation> st = AcquireGeneration();
  if (rules == st->rules->records) return;
  Publish(*st, st->graph, nullptr, BuildServedRules(std::move(rules)), ds);
  ds->rules_refreshed = 1;
}

void ServeSession::Publish(const Generation& old,
                           std::shared_ptr<const Graph> graph,
                           DeltaFootprint* footprint,
                           std::shared_ptr<const ServedRules> rules,
                           DeltaStats* ds) {
  if (rules == nullptr) rules = old.rules;
  std::shared_ptr<const Generation> next =
      DeriveGeneration(pq_, &old, std::move(graph), std::move(rules));
  const GenerationChange change(q_, old, *next, footprint);
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
