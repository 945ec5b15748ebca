#ifndef GPAR_TESTS_SEED_ORACLE_H_
#define GPAR_TESTS_SEED_ORACLE_H_

// The sequential full-probe seed: DMine's levelwise driver with one-thread
// candidate generation and a matcher probe of every membership on the whole
// graph — no fragments, no proposals, no lineage messages. The library
// seeds `RuleMaintainer` from one BSP `Dmine` run; tests hold that seed
// (its top-k, objective, evidence and probe counts) and DMine itself to
// this oracle.

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "maintain/rule_maintainer.h"
#include "match/matcher.h"
#include "mine/dmine.h"
#include "mine/levelwise.h"
#include "rule/match_delta.h"
#include "rule/rule_evidence.h"
#include "rule/rule_snapshot.h"

namespace gpar::test {

/// What a sequential seed computes, in `RuleMaintainer`'s terms.
struct OracleSeed {
  RuleSetEvidence evidence;
  std::vector<std::shared_ptr<MinedRule>> topk;
  double objective = 0;
  MaintainStats stats;

  std::vector<RuleRecord> TopKRecords() const {
    std::vector<RuleRecord> out;
    for (const auto& r : topk) out.push_back({r->rule, r->supp, r->conf});
    return out;
  }
};

/// Probes every pool center and, per candidate, every center of the
/// parent's match set (or of the round-0 pool), recording one evidence
/// entry per evaluated candidate in evaluation order.
class FullProbeEvaluator : public LevelwiseEvaluator {
 public:
  FullProbeEvaluator(const Graph& g, const Predicate& q, OracleSeed* out)
      : g_(g), q_(q), out_(*out), matcher_(g) {}

  LevelwisePools EvaluatePools(const SearchPlanStore& plans) override {
    matcher_.set_plan_store(&plans);
    const Pattern pq = q_.ToPattern();
    RuleSetEvidence& ev = out_.evidence;
    for (NodeId c : g_.nodes_with_label(q_.x_label)) {
      if (Probe(pq, c)) {
        ev.q_pool.push_back(c);
      } else if (g_.HasOutLabel(c, q_.edge_label)) {
        ev.qbar_pool.push_back(c);
      }
    }
    return {ev.q_pool, ev.qbar_pool};
  }

  std::vector<std::shared_ptr<MinedRule>> Evaluate(
      const std::vector<Gpar>& candidates,
      const std::vector<size_t>& cand_parent,
      const std::vector<char>& other_ok,
      const std::vector<std::shared_ptr<MinedRule>>& parents) override {
    RuleSetEvidence& ev = out_.evidence;
    std::vector<uint32_t> parent_entry;
    for (const auto& p : parents) parent_entry.push_back(entry_of_.at(p.get()));
    entry_of_.clear();

    std::vector<std::shared_ptr<MinedRule>> rules;
    for (size_t ci = 0; ci < candidates.size(); ++ci) {
      const Gpar& r = candidates[ci];
      EvidenceEntry ent;
      ent.rule = r;
      ent.parent = cand_parent[ci] == kRootParent
                       ? kEvidenceRoot
                       : parent_entry[cand_parent[ci]];
      const bool root = ent.parent == kEvidenceRoot;
      const std::vector<NodeId> pr_pool =
          root ? ev.q_pool : ev.entries[ent.parent].pr_matches;
      const std::vector<NodeId> ant_pool =
          root ? ev.qbar_pool : ev.entries[ent.parent].ant_matches;

      auto rule = std::make_shared<MinedRule>();
      rule->rule = r;
      for (NodeId c : pr_pool) {
        if (Probe(r.pr(), c)) ent.pr_matches.push_back(c);
      }
      rule->supp = ent.pr_matches.size();
      rule->matches = ent.pr_matches;
      rule->extendable = rule->supp > 0;
      if (other_ok[ci]) {
        ent.ant_probed = true;
        for (NodeId c : ant_pool) {
          if (Probe(r.x_component(), c)) ent.ant_matches.push_back(c);
        }
        rule->supp_qqbar = ent.ant_matches.size();
      }

      MaintainStats& st = out_.stats;
      ++st.rules_reexpanded;
      st.evidence_bytes_full += FullEncodedBytes(ent.pr_matches.size()) +
                                FullEncodedBytes(ent.ant_matches.size());
      st.evidence_bytes_delta +=
          DeltaEncodedBytes(ent.pr_matches.size(), pr_pool.size()) +
          DeltaEncodedBytes(ent.ant_matches.size(), ant_pool.size());
      entry_of_[rule.get()] = static_cast<uint32_t>(ev.entries.size());
      ev.entries.push_back(std::move(ent));
      rules.push_back(std::move(rule));
    }
    return rules;
  }

 private:
  bool Probe(const Pattern& p, NodeId c) {
    ++out_.stats.centers_reprobed;
    ++out_.stats.exists_calls;
    return matcher_.ExistsAt(p, c);
  }

  const Graph& g_;
  const Predicate& q_;
  OracleSeed& out_;
  VF2Matcher matcher_;
  /// Entry index of each rule the last `Evaluate` produced.
  std::unordered_map<const MinedRule*, uint32_t> entry_of_;
};

/// The sequential seed of `RuleMaintainer::Seed(g, q, {options})`: same
/// setup, evidence, top-k, objective and seed-pass counters.
inline OracleSeed SequentialSeed(const Graph& g, const Predicate& q,
                                 const DmineOptions& options) {
  OracleSeed out;
  MiningSetup& s = out.evidence.setup;
  s.x_label = g.labels().Name(q.x_label);
  s.edge_label = g.labels().Name(q.edge_label);
  s.y_label = g.labels().Name(q.y_label);
  s.k = options.k;
  s.d = options.d;
  s.sigma = options.sigma;
  s.lambda = options.lambda;
  s.max_pattern_edges = options.max_pattern_edges;
  s.seed_edge_limit = options.seed_edge_limit;
  s.max_candidates_per_round = options.max_candidates_per_round;
  s.bool_flags = PackMiningFlags(options);

  FullProbeEvaluator ev(g, q, &out);
  DmineStats ds;
  DiversifiedTopK top = RunLevelwise(g, q, options, ev, &ds);
  out.topk = std::move(top.topk);
  out.objective = top.objective;
  out.stats.passes = 1;
  out.stats.exists_calls += ds.global_exists_calls;
  out.stats.candidates_evaluated = ds.candidates_verified;
  out.stats.rules_accepted = ds.accepted;
  return out;
}

}  // namespace gpar::test

#endif  // GPAR_TESTS_SEED_ORACLE_H_
