#include "maintain/rule_maintainer.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "match/matcher.h"
#include "mine/levelwise.h"
#include "pattern/pattern_ops.h"
#include "rule/match_delta.h"
#include "serve/delta_journal.h"

namespace gpar {

namespace {

// Bits 4-6 of `MiningSetup::bool_flags` packed three retired DMine
// switches (worker-side generation, copied fragments, shared plans). They
// never changed a result. Writers keep them at those switches' defaults
// (on, off, on), so setups serialize as they always did; readers ignore
// them.
constexpr uint32_t kRetiredFlagBits = 0x70u;
constexpr uint32_t kRetiredFlagDefaults = (1u << 4) | (1u << 6);

uint32_t PackFlags(const DmineOptions& o) {
  uint32_t f = kRetiredFlagDefaults;
  if (o.enable_incremental_div) f |= 1u << 0;
  if (o.enable_reduction_rules) f |= 1u << 1;
  if (o.enable_bisim_prefilter) f |= 1u << 2;
  if (o.enable_parent_prune) f |= 1u << 3;
  if (o.enable_prune_aware_usupp) f |= 1u << 7;
  return f;
}

MiningSetup MakeSetup(const DmineOptions& o, const Predicate& q,
                      const Interner& labels) {
  MiningSetup s;
  s.x_label = labels.Name(q.x_label);
  s.edge_label = labels.Name(q.edge_label);
  s.y_label = labels.Name(q.y_label);
  s.k = o.k;
  s.d = o.d;
  s.sigma = o.sigma;
  s.lambda = o.lambda;
  s.max_pattern_edges = o.max_pattern_edges;
  s.seed_edge_limit = o.seed_edge_limit;
  s.max_candidates_per_round = o.max_candidates_per_round;
  s.bool_flags = PackFlags(o);
  return s;
}

Status ValidateOptions(const MaintainOptions& options) {
  GPAR_RETURN_NOT_OK(ValidateMiningOptions(options.mine));
  if (options.mine.enable_prune_aware_usupp) {
    return Status::InvalidArgument(
        "enable_prune_aware_usupp is not maintainable: its Usupp tightening "
        "depends on fragment geometry the sequential maintainer does not "
        "have");
  }
  return Status::OK();
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Folds one pass's counters into an accumulator. The evidence byte gauges
/// are point-in-time (the latest pass's evidence), not sums.
void Accumulate(MaintainStats* total, const MaintainStats& ps) {
  total->passes += ps.passes;
  total->edges_inserted += ps.edges_inserted;
  total->edges_deleted += ps.edges_deleted;
  total->affected_nodes += ps.affected_nodes;
  total->centers_reprobed += ps.centers_reprobed;
  total->centers_carried += ps.centers_carried;
  total->exists_calls += ps.exists_calls;
  total->candidates_evaluated += ps.candidates_evaluated;
  total->rules_patched += ps.rules_patched;
  total->rules_reexpanded += ps.rules_reexpanded;
  total->sigma_crossed_up += ps.sigma_crossed_up;
  total->sigma_crossed_down += ps.sigma_crossed_down;
  total->rules_accepted += ps.rules_accepted;
  if (ps.passes > 0) {
    total->evidence_bytes_full = ps.evidence_bytes_full;
    total->evidence_bytes_delta = ps.evidence_bytes_delta;
  }
  total->seconds += ps.seconds;
}

using AffectedMap = std::unordered_map<NodeId, uint32_t>;

/// The maintainer's evaluation strategy: sequential matching over the whole
/// graph, with evidence patching. By the locality property (Section 5.1) a
/// center's membership in a pattern of eval radius r depends only on
/// G_r(center), so only centers inside the affected region at that radius
/// are re-probed; every other membership is carried from the prior pass's
/// evidence. Supports are therefore exactly the full-probe values. With
/// `affected == nullptr` every membership is probed (the seed pass and the
/// incremental-off ablation). Every evaluated candidate, sub-sigma ones
/// included, leaves an entry in `next`.
class EvidencePatcher : public LevelwiseEvaluator {
 public:
  EvidencePatcher(const RuleMaintainer& m, const AffectedMap* affected,
                  RuleSetEvidence* next, MaintainStats* ps)
      : g_(*m.graph()),
        q_(m.predicate()),
        options_(m.options().mine),
        prior_(m.evidence()),
        affected_(affected),
        next_(*next),
        ps_(*ps),
        matcher_(g_) {
    if (affected_ == nullptr) return;  // nothing will be carried
    for (uint32_t i = 0; i < prior_.entries.size(); ++i) {
      index_[StructuralHash(prior_.entries[i].rule.pr())].push_back(i);
    }
  }

  // Pool membership of a center depends on G_1(center) (P_q has radius 1;
  // the ~q test reads the center's own out-edges), so only centers within
  // distance 1 of a touched endpoint are re-probed.
  LevelwisePools EvaluatePools(const SearchPlanStore& plans) override {
    matcher_.set_plan_store(&plans);
    const Pattern pq = q_.ToPattern();
    for (NodeId c : g_.nodes_with_label(q_.x_label)) {
      bool probe = affected_ == nullptr;
      if (!probe) {
        auto it = affected_->find(c);
        probe = it != affected_->end() && it->second <= 1;
      }
      bool in_q = false, in_qbar = false;
      if (probe) {
        ++ps_.centers_reprobed;
        ++ps_.exists_calls;
        in_q = matcher_.ExistsAt(pq, c);
        if (!in_q) in_qbar = g_.HasOutLabel(c, q_.edge_label);
      } else {
        ++ps_.centers_carried;
        in_q = std::binary_search(prior_.q_pool.begin(), prior_.q_pool.end(),
                                  c);
        if (!in_q) {
          in_qbar = std::binary_search(prior_.qbar_pool.begin(),
                                       prior_.qbar_pool.end(), c);
        }
      }
      if (in_q) {
        next_.q_pool.push_back(c);
      } else if (in_qbar) {
        next_.qbar_pool.push_back(c);
      }
    }
    return {next_.q_pool.size(), next_.qbar_pool.size()};
  }

  std::vector<std::shared_ptr<MinedRule>> Evaluate(
      const std::vector<Gpar>& candidates,
      const std::vector<size_t>& cand_parent,
      const std::vector<char>& other_ok,
      const std::vector<std::shared_ptr<MinedRule>>& parents) override {
    static const std::vector<NodeId> kNoOldSet;
    const bool prune = options_.enable_parent_prune;
    // Each parent's entry in `next_` (its match sets of THIS pass). All
    // keys of `entry_of_` belong to rules of one round, alive together
    // when inserted, so a live parent's lookup cannot alias another rule.
    std::vector<uint32_t> parent_entry(parents.size(), kEvidenceRoot);
    if (prune) {
      for (size_t pi = 0; pi < parents.size(); ++pi) {
        parent_entry[pi] = entry_of_.at(parents[pi].get());
      }
    }
    entry_of_.clear();

    std::vector<std::shared_ptr<MinedRule>> rules;
    rules.reserve(candidates.size());
    for (size_t ci = 0; ci < candidates.size(); ++ci) {
      const Gpar& r = candidates[ci];
      const uint32_t radius = r.eval_radius();

      // Pools: the parent's match sets, or the round-0 pools for roots and
      // the prune-off ablation. Spans into entry vectors stay valid across
      // `next_.entries` growth — reallocation moves the EvidenceEntry
      // objects, which transfers the inner buffers without touching them.
      const uint32_t pe = cand_parent[ci] == kRootParent
                              ? kEvidenceRoot
                              : parent_entry[cand_parent[ci]];
      std::span<const NodeId> pr_pool =
          pe != kEvidenceRoot
              ? std::span<const NodeId>(next_.entries[pe].pr_matches)
              : std::span<const NodeId>(next_.q_pool);
      std::span<const NodeId> ant_pool =
          pe != kEvidenceRoot
              ? std::span<const NodeId>(next_.entries[pe].ant_matches)
              : std::span<const NodeId>(next_.qbar_pool);

      // Prior evidence for this exact pattern, if any (a fresh pattern —
      // new seed, shifted lineage — has none and is re-expanded over its
      // pool, which its parent has already narrowed).
      const EvidenceEntry* old_ev = nullptr;
      if (affected_ != nullptr) {
        auto it = index_.find(StructuralHash(r.pr()));
        if (it != index_.end()) {
          for (uint32_t ei : it->second) {
            if (prior_.entries[ei].rule == r) {
              old_ev = &prior_.entries[ei];
              break;
            }
          }
        }
      }
      if (old_ev != nullptr) {
        ++ps_.rules_patched;
      } else {
        ++ps_.rules_reexpanded;
      }

      // Membership of `c` in pattern `p` (eval radius <= `radius`): probe
      // when the center sits inside the affected region at that radius or
      // there is no evidence to carry; otherwise the prior answer stands.
      auto membership = [&](NodeId c, const Pattern& p,
                            const std::vector<NodeId>& old_set,
                            bool have_old) -> bool {
        bool must_probe = !have_old;
        if (!must_probe) {
          auto it = affected_->find(c);
          must_probe = it != affected_->end() && it->second <= radius;
        }
        if (must_probe) {
          ++ps_.centers_reprobed;
          ++ps_.exists_calls;
          return matcher_.ExistsAt(p, c);
        }
        ++ps_.centers_carried;
        return std::binary_search(old_set.begin(), old_set.end(), c);
      };

      EvidenceEntry ent;
      ent.rule = r;
      ent.parent = pe;
      auto rule = std::make_shared<MinedRule>();
      rule->rule = r;

      const bool have_pr = old_ev != nullptr;
      for (NodeId c : pr_pool) {
        if (membership(c, r.pr(), have_pr ? old_ev->pr_matches : kNoOldSet,
                       have_pr)) {
          ent.pr_matches.push_back(c);
        }
      }
      rule->supp = ent.pr_matches.size();
      rule->matches = ent.pr_matches;
      rule->extendable = rule->supp > 0;
      rule->usupp = rule->supp;  // enable_prune_aware_usupp rejected upfront

      if (other_ok[ci]) {
        ent.ant_probed = true;
        const bool have_ant = old_ev != nullptr && old_ev->ant_probed;
        for (NodeId c : ant_pool) {
          if (membership(c, r.x_component(),
                         have_ant ? old_ev->ant_matches : kNoOldSet,
                         have_ant)) {
            ent.ant_matches.push_back(c);
          }
        }
        rule->supp_qqbar = ent.ant_matches.size();
      }

      if (old_ev != nullptr) {
        const bool was_in = old_ev->pr_matches.size() >= options_.sigma;
        const bool now_in = rule->supp >= options_.sigma;
        if (!was_in && now_in) ++ps_.sigma_crossed_up;
        if (was_in && !now_in) ++ps_.sigma_crossed_down;
      }

      // Persisted size: raw lists vs deltas against the pools they were
      // probed from (the parent's sets, or the round-0 pools).
      ps_.evidence_bytes_full += FullEncodedBytes(ent.pr_matches.size()) +
                                 FullEncodedBytes(ent.ant_matches.size());
      ps_.evidence_bytes_delta +=
          DeltaEncodedBytes(ent.pr_matches.size(), pr_pool.size()) +
          DeltaEncodedBytes(ent.ant_matches.size(), ant_pool.size());
      entry_of_[rule.get()] = static_cast<uint32_t>(next_.entries.size());
      next_.entries.push_back(std::move(ent));
      rules.push_back(std::move(rule));
    }
    return rules;
  }

 private:
  const Graph& g_;
  const Predicate& q_;
  const DmineOptions& options_;
  const RuleSetEvidence& prior_;
  const AffectedMap* affected_;
  RuleSetEvidence& next_;
  MaintainStats& ps_;
  VF2Matcher matcher_;
  /// StructuralHash(P_R) -> indices of the prior entries with that hash.
  std::unordered_map<uint64_t, std::vector<uint32_t>> index_;
  /// Entry index in `next_` of each rule the last `Evaluate` produced.
  std::unordered_map<const MinedRule*, uint32_t> entry_of_;
};

}  // namespace

RuleMaintainer::RuleMaintainer(std::shared_ptr<const Graph> g,
                               const Predicate& q,
                               const MaintainOptions& options)
    : options_(options), graph_(std::move(g)), q_(q) {
  evidence_.setup = MakeSetup(options_.mine, q_, graph_->labels());
}

Result<std::unique_ptr<RuleMaintainer>> RuleMaintainer::Seed(
    std::shared_ptr<const Graph> g, const Predicate& q,
    const MaintainOptions& options) {
  GPAR_RETURN_NOT_OK(ValidateOptions(options));
  if (g == nullptr) return Status::InvalidArgument("null graph");
  if (q.x_label >= g->labels().size() || q.edge_label >= g->labels().size() ||
      q.y_label >= g->labels().size()) {
    return Status::InvalidArgument(
        "predicate labels are not interned in the graph's dictionary");
  }
  std::unique_ptr<RuleMaintainer> m(
      new RuleMaintainer(std::move(g), q, options));
  MaintainStats ps;
  GPAR_RETURN_NOT_OK(m->RefreshPass(nullptr, &ps));
  Accumulate(&m->lifetime_, ps);
  return m;
}

Result<std::unique_ptr<RuleMaintainer>> RuleMaintainer::FromEvidence(
    std::shared_ptr<const Graph> g, RuleSetEvidence evidence,
    const MaintainOptions& options) {
  GPAR_RETURN_NOT_OK(ValidateOptions(options));
  if (g == nullptr) return Status::InvalidArgument("null graph");
  Interner* labels = g->labels_ptr().get();
  const Predicate q{labels->Intern(evidence.setup.x_label),
                    labels->Intern(evidence.setup.edge_label),
                    labels->Intern(evidence.setup.y_label)};
  std::unique_ptr<RuleMaintainer> m(
      new RuleMaintainer(std::move(g), q, options));
  // The retired bits are don't-care; adopting this build's values keeps
  // later snapshots byte-identical to a fresh seed's.
  evidence.setup.bool_flags =
      (evidence.setup.bool_flags & ~kRetiredFlagBits) | kRetiredFlagDefaults;
  if (!(evidence.setup == m->evidence_.setup)) {
    return Status::InvalidArgument(
        "evidence mining setup does not match MaintainOptions: evidence is "
        "only reusable under the exact parameters it was mined with");
  }
  m->evidence_ = std::move(evidence);
  // A zero-delta pass rebuilds Σ/top-k from the adopted evidence: with an
  // empty affected map every membership is carried, so this is pattern-
  // level work only (no pool probes) when the evidence matches the graph —
  // and a sound (if slow) re-expansion when it does not.
  const AffectedMap kNoneAffected;
  MaintainStats ps;
  GPAR_RETURN_NOT_OK(m->RefreshPass(&kNoneAffected, &ps));
  Accumulate(&m->lifetime_, ps);
  return m;
}

Status RuleMaintainer::RefreshPass(const AffectedMap* affected,
                                   MaintainStats* ps) {
  const auto t0 = std::chrono::steady_clock::now();
  if (!options_.enable_incremental_maintenance) affected = nullptr;
  ++ps->passes;

  RuleSetEvidence next;
  next.setup = evidence_.setup;
  EvidencePatcher patcher(*this, affected, &next, ps);
  DmineStats ds;
  LevelwiseResult lw = RunLevelwise(*graph_, q_, options_.mine, patcher, &ds);
  ps->candidates_evaluated += ds.candidates_verified;
  ps->rules_accepted += ds.accepted;
  ps->exists_calls += lw.global_exists_calls;
  topk_ = std::move(lw.top.topk);
  objective_ = lw.top.objective;
  // With an empty pool the driver stops before round 1, so `next` holds
  // only the pools: stale entries never survive to be patched against a
  // graph they no longer describe.
  evidence_ = std::move(next);
  ps->seconds = SecondsSince(t0);
  return Status::OK();
}

Result<MaintainStats> RuleMaintainer::Advance(
    const Graph& old_graph, std::shared_ptr<const Graph> new_graph,
    std::span<const EdgeInsert> applied,
    std::span<const EdgeDelete> applied_deletes) {
  if (new_graph == nullptr) return Status::InvalidArgument("null graph");
  MaintainStats ps;
  ps.edges_inserted = applied.size();
  ps.edges_deleted = applied_deletes.size();
  graph_ = std::move(new_graph);

  std::unordered_map<NodeId, uint32_t> affected;
  const std::unordered_map<NodeId, uint32_t>* affected_ptr = nullptr;
  if (options_.enable_incremental_maintenance) {
    // The shared re-probe frontier, at the mining radius: every generated
    // rule has eval_radius() <= mine.d, and the pools live at radius 1.
    const auto region = DeltaAffectedRegion(old_graph, *graph_, applied,
                                            applied_deletes, options_.mine.d);
    affected.reserve(region.size());
    for (const auto& [v, dist] : region) affected.emplace(v, dist);
    ps.affected_nodes = affected.size();
    affected_ptr = &affected;
  }
  GPAR_RETURN_NOT_OK(RefreshPass(affected_ptr, &ps));
  Accumulate(&lifetime_, ps);
  return ps;
}

Result<MaintainStats> RuleMaintainer::ApplyDelta(const GraphDelta& delta) {
  GPAR_ASSIGN_OR_RETURN(GraphPatch patch, PatchGraph(*graph_, delta));
  if (delta.sequence > last_sequence_) last_sequence_ = delta.sequence;
  if (patch.applied.empty() && patch.applied_deletes.empty()) {
    // Nothing changed (duplicates/missing only, or a compaction marker):
    // the rule set is already fresh.
    return MaintainStats{};
  }
  std::shared_ptr<const Graph> old = graph_;
  auto next = std::make_shared<const Graph>(std::move(patch.graph));
  return Advance(*old, std::move(next), patch.applied, patch.applied_deletes);
}

Result<MaintainStats> RuleMaintainer::ReplayJournal(
    const std::string& journal_path) {
  MaintainStats total;
  GPAR_RETURN_NOT_OK(ReplayRange(
      journal_path, last_sequence_, [&](const GraphDelta& frame) -> Status {
        auto r = ApplyDelta(frame);
        if (!r.ok()) return r.status();
        Accumulate(&total, r.value());
        return Status::OK();
      }));
  return total;
}

std::vector<RuleRecord> RuleMaintainer::TopKRecords() const {
  std::vector<RuleRecord> out;
  out.reserve(topk_.size());
  for (const auto& r : topk_) {
    out.push_back(RuleRecord{r->rule, r->supp, r->conf});
  }
  return out;
}

}  // namespace gpar
