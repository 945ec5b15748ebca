#include "maintain/rule_maintainer.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "match/matcher.h"
#include "mine/levelwise.h"
#include "pattern/pattern_ops.h"
#include "rule/match_delta.h"

namespace gpar {

namespace {

// Bits 3-6 of `MiningSetup::bool_flags`, retired (see PackMiningFlags).
constexpr uint32_t kRetiredFlagBits = 0x78u;
constexpr uint32_t kRetiredFlagDefaults = (1u << 3) | (1u << 4) | (1u << 6);
// Bit 7: the retired prune-aware Usupp switch, whose output this build
// cannot reproduce.
constexpr uint32_t kPruneAwareUsuppBit = 1u << 7;

}  // namespace

uint32_t PackMiningFlags(const DmineOptions& o) {
  uint32_t f = kRetiredFlagDefaults;
  if (o.enable_incremental_div) f |= 1u << 0;
  if (o.enable_reduction_rules) f |= 1u << 1;
  if (o.enable_bisim_prefilter) f |= 1u << 2;
  return f;
}

Status UnpackMiningFlags(uint32_t flags, DmineOptions* o) {
  if (flags > 0xffu) {
    return Status::InvalidArgument(
        "evidence setup carries unknown ablation flag bits (" +
        std::to_string(flags >> 8) +
        " above bit 7): written by a newer build?");
  }
  if ((flags & kPruneAwareUsuppBit) != 0) {
    return Status::InvalidArgument(
        "evidence setup was mined with prune-aware Usupp (flag bit 7), a "
        "retired heuristic this build cannot reproduce");
  }
  o->enable_incremental_div = (flags & (1u << 0)) != 0;
  o->enable_reduction_rules = (flags & (1u << 1)) != 0;
  o->enable_bisim_prefilter = (flags & (1u << 2)) != 0;
  return Status::OK();
}

MiningSetup MakeMiningSetup(const DmineOptions& o, const Predicate& q,
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
  s.bool_flags = PackMiningFlags(o);
  return s;
}

namespace {

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

/// Sets the evidence byte gauges of `ps` from `ev`: raw center lists vs
/// deltas against the pools each set was probed from (the parent entry's
/// sets, or the round-0 pools for roots).
void CountEvidenceBytes(const RuleSetEvidence& ev, MaintainStats* ps) {
  ps->evidence_bytes_full = 0;
  ps->evidence_bytes_delta = 0;
  for (const EvidenceEntry& e : ev.entries) {
    const bool root = e.parent == kEvidenceRoot;
    const size_t pr_pool =
        root ? ev.q_pool.size() : ev.entries[e.parent].pr_matches.size();
    const size_t ant_pool =
        root ? ev.qbar_pool.size() : ev.entries[e.parent].ant_matches.size();
    ps->evidence_bytes_full += FullEncodedBytes(e.pr_matches.size()) +
                               FullEncodedBytes(e.ant_matches.size());
    ps->evidence_bytes_delta +=
        DeltaEncodedBytes(e.pr_matches.size(), pr_pool) +
        DeltaEncodedBytes(e.ant_matches.size(), ant_pool);
  }
}

bool Contains(const std::vector<NodeId>& sorted, NodeId v) {
  return std::binary_search(sorted.begin(), sorted.end(), v);
}

/// How one pattern's prior match set carries over a pool. With no old set
/// (a pattern the prior pass never evaluated) every center is probed.
struct Carry {
  const std::vector<NodeId>* old_set = nullptr;
  const std::vector<uint32_t>* lost = nullptr;    ///< deleted-edge reach
  const std::vector<uint32_t>* gained = nullptr;  ///< inserted-edge reach
};

/// The maintainer's evaluation strategy: sequential matching over the whole
/// graph, with evidence patching. A membership is carried from the prior
/// pass's evidence unless the delta can have changed it (see
/// `RuleMaintainer` for the three rules and why they are sound), so
/// supports are exactly the full-probe values.
class EvidencePatcher : public LevelwiseEvaluator {
 public:
  EvidencePatcher(const RuleMaintainer& m, DeltaFootprint* footprint,
                  MaintainStats* ps)
      : g_(*m.graph()),
        q_(m.predicate()),
        options_(m.options().mine),
        prior_(m.evidence()),
        footprint_(*footprint),
        flipped_(g_.num_nodes(), 0),
        ps_(*ps),
        matcher_(g_) {
    for (uint32_t i = 0; i < prior_.entries.size(); ++i) {
      index_[StructuralHash(prior_.entries[i].rule.pr())].push_back(i);
    }
    pool_frontier_.assign(g_.num_nodes(), 0);
    for (const auto& [v, dist] : footprint_.region) {
      pool_frontier_[v] = dist <= 1;
      ps_.affected_nodes += dist <= options_.d;
    }
  }

  // Pool membership of a center depends on G_1(center) (P_q has radius 1;
  // the ~q test reads the center's own out-edges), so only centers within
  // distance 1 of a touched endpoint are re-probed. A center whose pool
  // status changes is marked for re-probing in every pattern.
  LevelwisePools EvaluatePools(const SearchPlanStore& plans) override {
    matcher_.set_plan_store(&plans);
    const Pattern pq = q_.ToPattern();
    matcher_.Bind(pq);
    for (NodeId c : g_.nodes_with_label(q_.x_label)) {
      const bool was_q = Contains(prior_.q_pool, c);
      const bool was_qbar = !was_q && Contains(prior_.qbar_pool, c);
      bool in_q = was_q, in_qbar = was_qbar;
      if (pool_frontier_[c]) {
        ++ps_.centers_reprobed;
        ++ps_.exists_calls;
        in_q = matcher_.ProbeAt(c);
        in_qbar = !in_q && g_.HasOutLabel(c, q_.edge_label);
        flipped_[c] = in_q != was_q || in_qbar != was_qbar;
        if (flipped_[c]) flipped_list_.push_back(c);
      } else {
        ++ps_.centers_carried;
      }
      if (in_q) {
        q_pool_.push_back(c);
      } else if (in_qbar) {
        qbar_pool_.push_back(c);
      }
    }
    return {q_pool_, qbar_pool_};
  }

  std::vector<std::shared_ptr<MinedRule>> Evaluate(
      const std::vector<Gpar>& candidates,
      const std::vector<size_t>& cand_parent,
      const std::vector<char>& other_ok,
      const std::vector<std::shared_ptr<MinedRule>>& parents) override {
    std::vector<std::shared_ptr<MinedRule>> rules;
    rules.reserve(candidates.size());
    for (size_t ci = 0; ci < candidates.size(); ++ci) {
      const Gpar& r = candidates[ci];
      const uint32_t radius = r.eval_radius();

      // Pools: the parent's match sets of THIS pass, or the round-0 pools
      // for roots.
      const MinedRule* parent = cand_parent[ci] == kRootParent
                                    ? nullptr
                                    : parents[cand_parent[ci]].get();
      const std::vector<NodeId>& pr_pool =
          parent != nullptr ? parent->matches : q_pool_;
      const std::vector<NodeId>& ant_pool =
          parent != nullptr ? parent->ant_matches : qbar_pool_;

      // Prior evidence for this exact pattern, if any (a fresh pattern —
      // new seed, shifted lineage — has none and is re-expanded over its
      // pool, which its parent has already narrowed).
      const EvidenceEntry* old_ev = nullptr;
      auto it = index_.find(StructuralHash(r.pr()));
      if (it != index_.end()) {
        for (uint32_t ei : it->second) {
          if (prior_.entries[ei].rule == r) {
            old_ev = &prior_.entries[ei];
            break;
          }
        }
      }
      if (old_ev != nullptr) {
        ++ps_.rules_patched;
      } else {
        ++ps_.rules_reexpanded;
      }

      auto rule = std::make_shared<MinedRule>();
      rule->rule = r;

      Carry pr_carry;
      if (old_ev != nullptr) pr_carry = CarryOver(old_ev->pr_matches, r.pr());
      Match(pr_pool, r.pr(), radius, pr_carry, &rule->matches);
      rule->supp = rule->matches.size();
      rule->extendable = rule->supp > 0;

      if (other_ok[ci]) {
        Carry ant_carry;
        if (old_ev != nullptr && old_ev->ant_probed) {
          ant_carry = CarryOver(old_ev->ant_matches, r.x_component());
        }
        Match(ant_pool, r.x_component(), radius, ant_carry,
              &rule->ant_matches);
        rule->supp_qqbar = rule->ant_matches.size();
      }

      if (old_ev != nullptr) {
        const bool was_in = old_ev->pr_matches.size() >= options_.sigma;
        const bool now_in = rule->supp >= options_.sigma;
        if (!was_in && now_in) ++ps_.sigma_crossed_up;
        if (was_in && !now_in) ++ps_.sigma_crossed_down;
      }

      rules.push_back(std::move(rule));
    }
    return rules;
  }

 private:
  // Carries `old`, the prior match set of `p`, subject to the delta edges
  // `p` uses.
  Carry CarryOver(const std::vector<NodeId>& old, const Pattern& p) {
    return {&old, footprint_.lost.For(p), footprint_.gained.For(p)};
  }

  // Appends the centers of `pool` matching `p` (eval radius <= `radius`)
  // to `out`. A center is probed when its pool status flipped this pass,
  // when there is no old set, or when a delta edge `p` uses lies within
  // `radius` in the direction that can change its old answer: deletes for
  // an old member, inserts for an old non-member. Otherwise the old answer
  // stands. Pools and old sets are both sorted, so one cursor walks the
  // old set.
  void Match(const std::vector<NodeId>& pool, const Pattern& p,
             uint32_t radius, const Carry& carry, std::vector<NodeId>* out) {
    if (carry.old_set != nullptr && carry.lost == nullptr &&
        carry.gained == nullptr) {
      CarryWhole(pool, p, *carry.old_set, out);
      return;
    }
    size_t pos = 0;
    matcher_.Bind(p);
    for (NodeId c : pool) {
      bool probe = carry.old_set == nullptr || flipped_[c];
      bool was_in = false;
      if (!probe) {
        const std::vector<NodeId>& old = *carry.old_set;
        while (pos < old.size() && old[pos] < c) ++pos;
        was_in = pos < old.size() && old[pos] == c;
        const std::vector<uint32_t>* reach =
            was_in ? carry.lost : carry.gained;
        probe = reach != nullptr && (*reach)[c] <= radius;
      }
      bool in = was_in;
      if (probe) {
        ++ps_.centers_reprobed;
        ++ps_.exists_calls;
        in = matcher_.ProbeAt(c);
      } else {
        ++ps_.centers_carried;
      }
      if (in) out->push_back(c);
    }
  }

  // `Match` for a pattern that uses no delta edge, where only the pool's
  // flipped centers are probed and every other center keeps its old
  // answer: the result is `old ∩ pool` plus the flipped centers that
  // match, built by one sorted intersection instead of a per-center walk.
  void CarryWhole(const std::vector<NodeId>& pool, const Pattern& p,
                  const std::vector<NodeId>& old, std::vector<NodeId>* out) {
    // A branch-free merge: each step keeps the old member when it equals
    // the pool's and advances whichever cursor is behind (or both).
    const size_t base = out->size();
    out->resize(base + std::min(old.size(), pool.size()));
    NodeId* kept_out = out->data() + base;
    size_t i = 0, j = 0, n = 0;
    while (i < old.size() && j < pool.size()) {
      const NodeId a = old[i], b = pool[j];
      kept_out[n] = a;
      n += a == b;
      i += a <= b;
      j += b <= a;
    }
    out->resize(base + n);
    hits_.clear();
    size_t probed = 0;
    for (NodeId c : flipped_list_) {
      if (!Contains(pool, c)) continue;
      if (probed++ == 0) matcher_.Bind(p);
      if (matcher_.ProbeAt(c)) hits_.push_back(c);
    }
    ps_.centers_reprobed += probed;
    ps_.exists_calls += probed;
    ps_.centers_carried += pool.size() - probed;
    // A flipped center of this pool is in no old set: it has just entered
    // its side's pool (q for P_R, ~q for antecedents), and every old set of
    // that side lies within the prior pass's pool (restored evidence is
    // first refreshed by a zero-delta pass, which flips nothing). So its
    // answer merges in without replacing a carried one.
    const size_t mid = out->size();
    out->insert(out->end(), hits_.begin(), hits_.end());
    std::inplace_merge(out->begin() + base, out->begin() + mid, out->end());
  }

  const Graph& g_;
  const Predicate& q_;
  const DmineOptions& options_;
  const RuleSetEvidence& prior_;
  // Reaches at least the mining radius d, which bounds every candidate's
  // eval_radius().
  DeltaFootprint& footprint_;
  /// Per node: within distance 1 of a touched endpoint (pools re-probed).
  std::vector<char> pool_frontier_;
  /// Per node: its q / ~q pool status changed this pass.
  std::vector<char> flipped_;
  /// The flipped centers, ascending.
  std::vector<NodeId> flipped_list_;
  /// `CarryWhole`'s scratch: the flipped centers that matched.
  std::vector<NodeId> hits_;
  /// This pass's round-0 pools: the root candidates' pools.
  std::vector<NodeId> q_pool_;
  std::vector<NodeId> qbar_pool_;
  MaintainStats& ps_;
  VF2Matcher matcher_;
  /// StructuralHash(P_R) -> indices of the prior entries with that hash.
  std::unordered_map<uint64_t, std::vector<uint32_t>> index_;
};

}  // namespace

RuleMaintainer::RuleMaintainer(std::shared_ptr<const Graph> g,
                               const Predicate& q,
                               const MaintainOptions& options)
    : options_(options), graph_(std::move(g)), q_(q) {
  evidence_.setup = MakeMiningSetup(options_.mine, q_, graph_->labels());
}

Result<std::unique_ptr<RuleMaintainer>> RuleMaintainer::Seed(
    std::shared_ptr<const Graph> g, const Predicate& q,
    const MaintainOptions& options) {
  const Timer timer;
  if (g == nullptr) return Status::InvalidArgument("null graph");
  if (q.x_label >= g->labels().size() || q.edge_label >= g->labels().size() ||
      q.y_label >= g->labels().size()) {
    return Status::InvalidArgument(
        "predicate labels are not interned in the graph's dictionary");
  }
  std::unique_ptr<RuleMaintainer> m(
      new RuleMaintainer(std::move(g), q, options));
  GPAR_ASSIGN_OR_RETURN(DmineResult r,
                        Dmine(*m->graph_, q, options.mine, &m->evidence_));
  m->topk_ = std::move(r.topk);
  m->objective_ = r.objective;
  // Every worker probe computes a membership from scratch, and every
  // candidate is expanded over its full parent-restricted pool.
  MaintainStats ps;
  ps.passes = 1;
  ps.centers_reprobed = r.stats.exists_calls;
  ps.exists_calls = r.stats.exists_calls + r.stats.global_exists_calls;
  ps.candidates_evaluated = r.stats.candidates_verified;
  ps.rules_reexpanded = r.stats.candidates_verified;
  ps.rules_accepted = r.stats.accepted;
  CountEvidenceBytes(m->evidence_, &ps);
  ps.seconds = timer.Seconds();
  Accumulate(&m->lifetime_, ps);
  return m;
}

Result<std::unique_ptr<RuleMaintainer>> RuleMaintainer::FromEvidence(
    std::shared_ptr<const Graph> g, RuleSetEvidence evidence,
    const MaintainOptions& options) {
  GPAR_RETURN_NOT_OK(ValidateMiningOptions(options.mine));
  if (g == nullptr) return Status::InvalidArgument("null graph");
  const Interner& labels = g->labels();
  const Predicate q{labels.Lookup(evidence.setup.x_label),
                    labels.Lookup(evidence.setup.edge_label),
                    labels.Lookup(evidence.setup.y_label)};
  if (q.x_label == kNoLabel || q.edge_label == kNoLabel ||
      q.y_label == kNoLabel) {
    return Status::InvalidArgument(
        "evidence predicate labels are not interned in the graph's "
        "dictionary");
  }
  // With no graph fingerprint, the pools are what can be checked: on the
  // graph the evidence was exported at, every pooled center has x's label.
  for (const auto* pool : {&evidence.q_pool, &evidence.qbar_pool}) {
    for (NodeId c : *pool) {
      if (c >= g->num_nodes() || g->node_label(c) != q.x_label) {
        return Status::InvalidArgument(
            "evidence pools a center that is not an x-labelled node of the "
            "graph: evidence of another graph?");
      }
    }
  }
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
  // A zero-delta pass rebuilds Σ/top-k from the adopted evidence: with no
  // delta edges every pool and evidenced membership is carried. On the
  // graph the evidence was exported at, every candidate has evidence, so
  // this is pattern-level work only (no center probes). Evidence exported
  // at another graph that passes the checks above is not detected, and the
  // rules rebuilt from it need not be `Dmine`'s on `g`.
  DeltaFootprint none(*m->graph_, *m->graph_, {}, {}, options.mine.d);
  GPAR_RETURN_NOT_OK(m->Advance(m->graph_, &none).status());
  return m;
}

Result<MaintainStats> RuleMaintainer::Advance(
    std::shared_ptr<const Graph> new_graph, DeltaFootprint* footprint) {
  if (new_graph == nullptr) return Status::InvalidArgument("null graph");
  const Timer timer;
  MaintainStats ps;
  ps.passes = 1;
  ps.edges_inserted = footprint->inserts.size();
  ps.edges_deleted = footprint->deletes.size();
  graph_ = std::move(new_graph);

  RuleSetEvidence next;
  next.setup = evidence_.setup;
  EvidencePatcher patcher(*this, footprint, &ps);
  DmineStats ds;
  DiversifiedTopK top =
      RunLevelwise(*graph_, q_, options_.mine, patcher, &ds, &next);
  ps.candidates_evaluated = ds.candidates_verified;
  ps.rules_accepted = ds.accepted;
  ps.exists_calls += ds.global_exists_calls;
  topk_ = std::move(top.topk);
  objective_ = top.objective;
  CountEvidenceBytes(next, &ps);
  // With an empty pool the driver stops before round 1, so `next` holds
  // only the pools: stale entries never survive to be patched against a
  // graph they no longer describe.
  evidence_ = std::move(next);
  ps.seconds = timer.Seconds();
  Accumulate(&lifetime_, ps);
  return ps;
}

Result<MaintainStats> RuleMaintainer::ApplyDelta(const GraphDelta& delta) {
  GPAR_ASSIGN_OR_RETURN(GraphPatch patch, PatchGraph(*graph_, delta));
  if (delta.sequence > last_sequence_) last_sequence_ = delta.sequence;
  if (!patch.changed()) {
    // Nothing changed (duplicates/missing only, or a compaction marker):
    // the rule set is already fresh.
    return MaintainStats{};
  }
  // The footprint reads the old graph, which `Advance` drops as current.
  const std::shared_ptr<const Graph> old = graph_;
  auto next = std::make_shared<const Graph>(std::move(patch.graph));
  DeltaFootprint footprint(*old, *next, patch.applied, patch.applied_deletes,
                           options_.mine.d);
  return Advance(std::move(next), &footprint);
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
