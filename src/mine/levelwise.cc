#include "mine/levelwise.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <utility>

#include "graph/stats.h"
#include "mine/inc_div.h"
#include "mine/reduction.h"
#include "parallel/bsp.h"
#include "rule/diversity.h"
#include "rule/metrics.h"

namespace gpar {

Status ValidateMiningOptions(const DmineOptions& options) {
  if (options.k < 2) return Status::InvalidArgument("k must be at least 2");
  if (options.d == 0) return Status::InvalidArgument("d must be at least 1");
  // Negated so that NaN fails too.
  if (!(options.lambda >= 0.0 && options.lambda <= 1.0)) {
    return Status::InvalidArgument("lambda must be a finite value in [0, 1]");
  }
  return Status::OK();
}

DiversifiedTopK DiversifyPool(
    const std::vector<std::shared_ptr<MinedRule>>& pool, uint32_t k,
    double lambda, double n_norm) {
  DiversifiedTopK out;
  out.topk = FullDiversify(pool, k, lambda, n_norm);
  std::vector<double> confs;
  std::vector<const std::vector<NodeId>*> sets;
  for (const auto& r : out.topk) {
    confs.push_back(r->conf);
    sets.push_back(&r->matches);
  }
  out.objective = ObjectiveF(confs, sets, lambda, n_norm, k);
  return out;
}

void LevelwiseEvaluator::Generate(
    const Pattern& base, const std::vector<std::shared_ptr<MinedRule>>& parents,
    const Extender& extend, std::vector<Gpar>* fresh,
    std::vector<size_t>* fresh_parent) {
  auto generate_from = [&](const Pattern& ant, size_t parent_idx) {
    for (Gpar& e : extend(ant)) {
      fresh->push_back(std::move(e));
      fresh_parent->push_back(parent_idx);
    }
  };
  if (parents.empty()) {
    generate_from(base, kRootParent);
    return;
  }
  for (size_t pi = 0; pi < parents.size(); ++pi) {
    generate_from(parents[pi]->rule.antecedent(), pi);
  }
}

namespace {

// A parent's antecedent set and per-fragment match sets serve one round:
// its children's pools. Σ keeps the rule itself (and its `matches`) alive
// for diversification.
void ReleaseLineage(MinedRule* r) {
  r->ant_matches = {};
  r->frag_pr_centers = {};
  r->frag_ant_centers = {};
}

/// Whether two seed alphabets list the same label triples in the same
/// order (counts aside): `GenerateExtensions` reads nothing else.
bool SameTriples(const std::vector<EdgePatternStat>& a,
                 const std::vector<EdgePatternStat>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const EdgePatternStat& x, const EdgePatternStat& y) {
                      return !TripleLess(x, y) && !TripleLess(y, x);
                    });
}

}  // namespace

DiversifiedTopK RunLevelwise(const Graph& g, const Predicate& q,
                             const DmineOptions& options,
                             LevelwiseEvaluator& ev, DmineStats* stats,
                             RuleSetEvidence* evidence, LevelwiseMemo* memo) {
  DiversifiedTopK out;
  // The coordinator plans each pattern once; every matcher reads the store.
  std::optional<SearchPlanStore> own_plans;
  if (memo == nullptr) {
    own_plans.emplace(g);
  } else if (memo->plans == nullptr) {
    memo->plans = std::make_unique<SearchPlanStore>(g);
  } else {
    memo->plans->set_graph(g);
  }
  SearchPlanStore& plans = memo != nullptr ? *memo->plans : *own_plans;
  const Pattern pq = q.ToPattern();
  auto prepare_pq = [&] {
    PNodeId px = pq.x();
    plans.Prepare(pq, {&px, 1});
  };
  ev.Coordinator(prepare_pq);
  if (memo != nullptr) {
    memo->rounds_replayed = 0;
    memo->rounds_regenerated = 0;
    memo->bitsets_reused = 0;
  }

  // The q / ~q pools "never change and hence are derived once for all".
  LevelwisePools pools = ev.EvaluatePools(plans);
  const uint64_t supp_q = pools.q_pool.size();
  const uint64_t supp_qbar = pools.qbar_pool.size();
  stats->supp_q = supp_q;
  stats->supp_qbar = supp_qbar;
  stats->plans_prepared = plans.patterns_planned();
  if (evidence != nullptr) {
    evidence->q_pool = std::move(pools.q_pool);
    evidence->qbar_pool = std::move(pools.qbar_pool);
    evidence->entries.clear();
  }
  // No q pool: q(x, y) names no one in G. No ~q pool: every rule would be
  // a trivial logic rule (supp(Q~q) = 0). Returning keeps n_norm = 0 away
  // from the objective's divisions.
  if (supp_q == 0 || supp_qbar == 0) {
    if (memo != nullptr) memo->bits.clear();  // no entry left to describe
    return out;
  }
  const double n_norm =
      static_cast<double>(supp_q) * static_cast<double>(supp_qbar);

  const std::vector<EdgePatternStat> seeds =
      FrequentEdgePatterns(g, options.seed_edge_limit);
  // True while every round so far was replayed from the memo.
  bool replaying = memo != nullptr && SameTriples(memo->alphabet, seeds);
  if (memo != nullptr && !replaying) memo->alphabet = seeds;
  const Extender extend = [&](const Pattern& ant) {
    return GenerateExtensions(ant, q.edge_label, options.d,
                              options.max_pattern_edges, seeds);
  };
  // Round 1 extends the bare predicate q(x, y): an antecedent with just the
  // designated nodes and no edges.
  Pattern base;
  base.set_x(base.AddNode(q.x_label));
  base.set_y(base.AddNode(q.y_label));
  // Antecedent components without x can match anywhere in G: checked once
  // per candidate on the whole graph.
  VF2Matcher global_matcher(g);

  IncDiv incdiv(options.k, options.lambda, n_norm,
                memo != nullptr ? &memo->ranks : nullptr);
  std::vector<std::shared_ptr<MinedRule>> sigma;  // Σ
  std::vector<uint32_t> sigma_entry;  // per Σ rule: its evidence entry
  std::unordered_map<uint64_t, std::vector<Pattern>> seen_buckets;
  std::vector<std::shared_ptr<MinedRule>> parents;  // M
  std::vector<uint32_t> parent_cand;  // per parent: its previous-round index
  uint32_t parents_first_entry = 0;   // evidence entry of that round's first
  uint32_t num_entries = 0;           // candidates evaluated so far

  auto prepare = [&](const std::vector<Gpar>& candidates) {
    // Matchers probe P_R and the x-component, both anchored at x.
    for (const Gpar& r : candidates) {
      PNodeId prx = r.pr().x();
      plans.Prepare(r.pr(), {&prx, 1});
      PNodeId qx = r.x_component().x();
      plans.Prepare(r.x_component(), {&qx, 1});
    }
  };

  for (uint32_t round = 1;
       round <= options.max_pattern_edges && (round == 1 || !parents.empty());
       ++round) {
    // The round's deduplicated candidates: the memo's on a replay, else
    // freshly generated (into the memo when there is one).
    std::vector<Gpar> own_candidates;
    std::vector<size_t> own_parent;
    const std::vector<Gpar>* candidates = &own_candidates;
    const std::vector<size_t>* cand_parent = &own_parent;
    const bool replay = replaying && memo->rounds.size() >= round &&
                        memo->rounds[round - 1].parents == parent_cand;
    if (replay) {
      const LevelwiseMemo::Round& mr = memo->rounds[round - 1];
      candidates = &mr.candidates;
      cand_parent = &mr.cand_parent;
      stats->candidates_generated += mr.generated;
      stats->automorphic_merged += mr.automorphic_merged;
      stats->bisim_tests += mr.bisim_tests;
      stats->iso_tests += mr.iso_tests;
      ++memo->rounds_replayed;
    } else {
      if (replaying && round > 1) seen_buckets = memo->rounds[round - 2].seen;
      replaying = false;
      const bool first_miss = memo != nullptr && memo->rounds_regenerated == 0;
      std::vector<Gpar> fresh;
      std::vector<size_t> fresh_parent;
      ev.Generate(base, parents, extend, &fresh, &fresh_parent);
      stats->candidates_generated += fresh.size();
      const size_t merged_before = stats->automorphic_merged;
      const uint64_t bisim_before = stats->bisim_tests;
      const uint64_t iso_before = stats->iso_tests;
      ev.Coordinator([&] {
        const double start = ThreadCpuSeconds();
        const std::vector<size_t> kept = DedupCandidates(
            fresh, options.max_candidates_per_round, &seen_buckets,
            options.enable_bisim_prefilter, stats);
        own_candidates.reserve(kept.size());
        own_parent.reserve(kept.size());
        for (size_t idx : kept) {
          own_candidates.push_back(std::move(fresh[idx]));
          own_parent.push_back(fresh_parent[idx]);
        }
        stats->coordinator_merge_seconds += ThreadCpuSeconds() - start;
      });
      if (memo != nullptr) {
        // Every later memo round was keyed on the old version of this one.
        memo->rounds.resize(round - 1);
        LevelwiseMemo::Round& mr = memo->rounds.emplace_back();
        mr.parents = parent_cand;
        mr.candidates = std::move(own_candidates);
        mr.cand_parent = std::move(own_parent);
        mr.seen = seen_buckets;
        mr.generated = fresh.size();
        mr.automorphic_merged = stats->automorphic_merged - merged_before;
        mr.bisim_tests = stats->bisim_tests - bisim_before;
        mr.iso_tests = stats->iso_tests - iso_before;
        candidates = &mr.candidates;
        cand_parent = &mr.cand_parent;
        ++memo->rounds_regenerated;
      }
      ev.Coordinator([&] {
        if (first_miss) {
          // The store keeps exactly the lattice's patterns: drop the old
          // lattice's, re-plan P_q and the rounds replayed so far.
          plans.Clear();
          prepare_pq();
          for (uint32_t r = 0; r + 1 < round; ++r) {
            prepare(memo->rounds[r].candidates);
          }
        }
        prepare(*candidates);
      });
    }
    stats->candidates_verified += candidates->size();

    std::vector<char> other_ok(candidates->size(), 1);
    ev.Coordinator([&] {
      const double start = ThreadCpuSeconds();
      for (size_t ci = 0; ci < candidates->size(); ++ci) {
        for (const Pattern& comp : (*candidates)[ci].other_components()) {
          ++stats->global_exists_calls;
          if (!global_matcher.Exists(comp)) {
            other_ok[ci] = 0;
            break;
          }
        }
      }
      stats->coordinator_merge_seconds += ThreadCpuSeconds() - start;
    });
    if (candidates->empty()) break;

    std::vector<std::shared_ptr<MinedRule>> evaluated =
        ev.Evaluate(*candidates, *cand_parent, other_ok, parents);

    ev.Coordinator([&] {
      // Evidence: one entry per evaluated candidate, sub-sigma included.
      const uint32_t first_entry = num_entries;
      num_entries += static_cast<uint32_t>(evaluated.size());
      if (evidence != nullptr) {
        for (size_t ci = 0; ci < evaluated.size(); ++ci) {
          const MinedRule& r = *evaluated[ci];
          const size_t pi = (*cand_parent)[ci];
          evidence->entries.push_back(
              {r.rule,
               pi == kRootParent ? kEvidenceRoot
                                 : parents_first_entry + parent_cand[pi],
               other_ok[ci] != 0, r.matches, r.ant_matches});
        }
      }
      std::vector<std::shared_ptr<MinedRule>> delta;  // ΔE
      std::vector<uint32_t> delta_cand;  // per ΔE rule: its candidate index
      for (size_t ci = 0; ci < evaluated.size(); ++ci) {
        std::shared_ptr<MinedRule>& rule = evaluated[ci];
        rule->uconf_plus = UConfPlus(rule->supp, supp_qbar, supp_q);
        if (rule->supp < options.sigma) continue;
        if (rule->supp_qqbar == 0) {
          // Trivial "logic rule": holds on all of Q(x, G); discarded per the
          // paper's trivial-GPAR handling.
          ++stats->trivial_discarded;
          continue;
        }
        rule->conf =
            BayesFactorConf(rule->supp, supp_qbar, rule->supp_qqbar, supp_q);
        delta.push_back(std::move(rule));
        delta_cand.push_back(static_cast<uint32_t>(ci));
      }
      stats->accepted += delta.size();
      sigma.insert(sigma.end(), delta.begin(), delta.end());
      for (uint32_t ci : delta_cand) sigma_entry.push_back(first_entry + ci);

      if (options.enable_incremental_div) {
        if (memo != nullptr) {
          // A rule whose P_R set is the one its entry held last call keeps
          // that call's bitset.
          for (size_t i = 0; i < delta.size(); ++i) {
            const uint32_t e = first_entry + delta_cand[i];
            if (!ev.MatchesCarried(delta_cand[i]) || e >= memo->bits.size() ||
                !memo->bits[e].has_value()) {
              continue;
            }
            incdiv.AdoptBits(delta[i], std::move(*memo->bits[e]));
            ++memo->bitsets_reused;
          }
        }
        incdiv.AddRound(delta, sigma);
        if (options.enable_reduction_rules) {
          ReductionStats rs = ApplyReductionRules(
              sigma, delta, incdiv.MinPairFPrime(), options.lambda, n_norm,
              options.k,
              [&](const MinedRule* r) { return incdiv.InQueue(r); });
          stats->pruned_by_reduction += rs.pruned_sigma + rs.pruned_delta;
        }
      } else {
        // DMineno recomputes the diversified top-k from scratch every round
        // instead of maintaining it incrementally — the cost the paper's
        // Exp-1 ablation measures.
        out = DiversifyPool(sigma, options.k, options.lambda, n_norm);
      }

      // Next round's M.
      for (const auto& p : parents) ReleaseLineage(p.get());
      parents.clear();
      parent_cand.clear();
      parents_first_entry = first_entry;
      for (size_t i = 0; i < delta.size(); ++i) {
        const std::shared_ptr<MinedRule>& r = delta[i];
        if (!r->extendable || r->pruned ||
            r->rule.antecedent().num_edges() >= options.max_pattern_edges) {
          ReleaseLineage(r.get());
          continue;
        }
        parents.push_back(r);
        parent_cand.push_back(delta_cand[i]);
      }
    });
  }
  for (const auto& p : parents) ReleaseLineage(p.get());

  if (options.enable_incremental_div) {
    ev.Coordinator([&] {
      out.topk = incdiv.TopK();
      out.objective = incdiv.Objective();
    });
  }
  if (memo != nullptr) {
    // Next call's bitsets, by this call's evidence entries.
    memo->bits.assign(num_entries, std::nullopt);
    if (options.enable_incremental_div) {
      for (size_t i = 0; i < sigma.size(); ++i) {
        memo->bits[sigma_entry[i]] = incdiv.TakeBits(sigma[i]);
      }
    }
  }
  stats->plans_prepared = plans.patterns_planned();
  return out;
}

}  // namespace gpar
