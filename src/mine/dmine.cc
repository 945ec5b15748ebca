#include "mine/dmine.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "graph/partition.h"
#include "match/matcher.h"
#include "mine/levelwise.h"
#include "pattern/automorphism.h"
#include "pattern/bisimulation.h"
#include "pattern/pattern_ops.h"
#include "rule/match_delta.h"

namespace gpar {

DmineOptions DmineNoOptions(DmineOptions base) {
  base.enable_incremental_div = false;
  base.enable_reduction_rules = false;
  base.enable_bisim_prefilter = false;
  return base;
}

std::vector<Gpar> GenerateExtensions(const Pattern& antecedent,
                                     LabelId q_label, uint32_t d,
                                     uint32_t max_edges,
                                     const std::vector<EdgePatternStat>& seeds) {
  std::vector<Gpar> out;
  if (antecedent.num_edges() >= max_edges) return out;

  // Distances are measured on P_R (antecedent + consequent edge): node ids
  // of the antecedent are unchanged in P_R.
  Pattern pr = antecedent;
  pr.AddEdge(antecedent.x(), q_label, antecedent.y());
  std::vector<uint32_t> dist = DistancesFrom(pr, pr.x());

  auto emit = [&](const Extension& ext) {
    Pattern grown = ApplyExtension(antecedent, ext);
    auto r = Gpar::Create(std::move(grown), q_label);
    // Enforce the radius bound on P_R *and* on the antecedent's
    // x-component (the latter keeps fragment-local antecedent matching
    // exact with d-hop partitions; see Gpar::eval_radius).
    if (r.ok() && r.value().eval_radius() <= d) {
      out.push_back(std::move(r).value());
    }
  };

  // Forward extensions: attach a new node to any node within hop d-1 of x,
  // so the new node stays within radius d.
  for (PNodeId u = 0; u < antecedent.num_nodes(); ++u) {
    if (dist[u] >= d) continue;
    const LabelId ul = antecedent.node(u).label;
    for (const EdgePatternStat& s : seeds) {
      if (s.src_label == ul) {
        emit({u, /*out=*/true, s.edge_label, s.dst_label, kNoPatternNode});
      }
      if (s.dst_label == ul) {
        emit({u, /*out=*/false, s.edge_label, s.src_label, kNoPatternNode});
      }
    }
  }

  // Backward extensions: a new edge between existing nodes (never grows
  // the radius).
  for (PNodeId u = 0; u < antecedent.num_nodes(); ++u) {
    for (PNodeId w = 0; w < antecedent.num_nodes(); ++w) {
      if (u == w) continue;
      const LabelId ul = antecedent.node(u).label;
      const LabelId wl = antecedent.node(w).label;
      for (const EdgePatternStat& s : seeds) {
        if (s.src_label != ul || s.dst_label != wl) continue;
        // Skip duplicates of existing edges and of the consequent itself.
        if (u == antecedent.x() && w == antecedent.y() &&
            s.edge_label == q_label) {
          continue;
        }
        bool exists = false;
        for (const PatternEdge& e : antecedent.edges()) {
          if (e.src == u && e.dst == w && e.label == s.edge_label) {
            exists = true;
            break;
          }
        }
        if (!exists) {
          emit({u, /*out=*/true, s.edge_label, kNoLabel, w});
        }
      }
    }
  }
  return out;
}

namespace {

/// Per-worker evaluation context over one fragment. Aligned so a worker's
/// per-probe counter writes never share a cache line with the next worker.
struct alignas(64) WorkerState {
  const Fragment* frag = nullptr;
  std::unique_ptr<VF2Matcher> matcher;
  std::vector<uint32_t> q_centers;     // center indices in P_q(x, ·)
  std::vector<uint32_t> qbar_centers;  // center indices in the ~q pool
  uint64_t exists_calls = 0;
  uint64_t centers_skipped = 0;
  uint64_t evidence_bytes_full = 0;
  uint64_t evidence_bytes_delta = 0;
};

/// Local statistics for one candidate GPAR at one fragment.
struct LocalStats {
  uint64_t supp_r = 0;
  uint64_t supp_qqbar = 0;
  bool extendable = false;
  std::vector<NodeId> matches_global;
  // Parent sets handed to this candidate's own extensions (ascending center
  // indices). Scratch while the worker probes; the message to the
  // coordinator ships the delta forms.
  std::vector<uint32_t> pr_centers;
  std::vector<uint32_t> ant_centers;
  // The lineage sets as shipped: deltas against the pool each side was
  // probed from (anti-monotone subsets — see match_delta.h). The
  // coordinator decodes them against the same pools; DmineStats accounts
  // the bytes this saves over raw center lists.
  MatchSetDelta pr_delta;
  MatchSetDelta ant_delta;
};

// Appends the global ids of a fragment's local center indices to `out`.
void AppendGlobal(std::span<const uint32_t> local, const Fragment& frag,
                  std::vector<NodeId>* out) {
  for (uint32_t c : local) out->push_back(frag.centers[c]);
}

// Serialized size of one shipped lineage delta (u8 mode + u32 count +
// count x u32 — the PutMatchSetDelta wire form).
uint64_t DeltaWireBytes(const MatchSetDelta& d) {
  return 1 + 4 + 4 * static_cast<uint64_t>(d.payload.size());
}

/// DMine's evaluation strategy: BSP fragment workers propose candidates
/// and count local supports; coordinator sections merge proposals and
/// assemble the per-fragment counts and lineage. With an `evidence`
/// output, the coordinator also records the global pools and every
/// candidate's match sets.
class FragmentEvaluator : public LevelwiseEvaluator {
 public:
  FragmentEvaluator(BspRuntime* bsp, const Partitioning& parts,
                    const Predicate& q, const DmineOptions& options,
                    DmineStats* stats, RuleSetEvidence* evidence)
      : bsp_(*bsp), q_(q), options_(options), stats_(*stats),
        evidence_(evidence), workers_(options.num_workers) {
    for (uint32_t i = 0; i < options.num_workers; ++i) {
      workers_[i].frag = &parts.fragments[i];
    }
  }

  void Coordinator(const std::function<void()>& section) override {
    bsp_.RunCoordinator(section);
  }

  LevelwisePools EvaluatePools(const SearchPlanStore& plans) override {
    const Pattern pq = q_.ToPattern();
    bsp_.RunRound([&](uint32_t i) {
      WorkerState& w = workers_[i];
      w.matcher = std::make_unique<VF2Matcher>(w.frag->view);
      w.matcher->set_plan_store(&plans);
      if (w.frag->centers.empty()) return;
      w.matcher->Bind(pq);
      for (size_t c = 0; c < w.frag->centers.size(); ++c) {
        const NodeId center = w.frag->centers[c];
        ++w.exists_calls;
        if (w.matcher->ProbeAt(center)) {
          w.q_centers.push_back(static_cast<uint32_t>(c));
        } else if (w.frag->view.HasOutLabel(center, q_.edge_label)) {
          w.qbar_centers.push_back(static_cast<uint32_t>(c));
        }
      }
    });
    LevelwisePools pools;
    for (const WorkerState& w : workers_) {
      pools.supp_q += w.q_centers.size();
      pools.supp_qbar += w.qbar_centers.size();
    }
    if (evidence_ != nullptr) {
      bsp_.RunCoordinator([&] {
        for (const WorkerState& w : workers_) {
          AppendGlobal(w.q_centers, *w.frag, &evidence_->q_pool);
          AppendGlobal(w.qbar_centers, *w.frag, &evidence_->qbar_pool);
        }
        std::sort(evidence_->q_pool.begin(), evidence_->q_pool.end());
        std::sort(evidence_->qbar_pool.begin(), evidence_->qbar_pool.end());
      });
    }
    return pools;
  }

  // Workers propose the extensions of the parents that survive locally
  // (round 1 extends the bare predicate from the q-pool). A parent may
  // survive in several fragments; since every surviving fragment would
  // enumerate the identical deterministic extension set, exactly one of
  // them — round-robin over the survivors by parent index, for balance —
  // materializes and ships the proposals. Each worker derives the
  // assignment locally from the broadcast lineage (no extra coordinator
  // round). MergeProposals keeps the duplicate-collapse path as a tripwire
  // (`cross_fragment_merged` stays 0 unless the assignment ever
  // double-proposes).
  void Generate(const Pattern& base,
                const std::vector<std::shared_ptr<MinedRule>>& parents,
                const Extender& extend, std::vector<Gpar>* fresh,
                std::vector<size_t>* fresh_parent) override {
    const uint32_t n = options_.num_workers;
    auto proposals = bsp_.RunRound([&](uint32_t wi) {
      const WorkerState& w = workers_[wi];
      std::vector<CandidateProposal> out;
      // survives(j): fragment j holds centers this parent can extend at.
      // Every extendable parent (and, round 1, the bare predicate, since
      // supp_q > 0 here) survives in at least one fragment; correctness
      // only needs *one deterministic owner per parent*, so a
      // survivor-free parent (impossible by the invariant above) would
      // still be assigned soundly, just without the locality rationale.
      auto owner_of = [&](size_t pi, auto survives) -> uint32_t {
        uint32_t count = 0;
        for (uint32_t j = 0; j < n; ++j) {
          if (survives(j)) ++count;
        }
        if (count == 0) return static_cast<uint32_t>(pi % n);
        uint32_t target = static_cast<uint32_t>(pi % count);
        for (uint32_t j = 0; j < n; ++j) {
          if (!survives(j)) continue;
          if (target == 0) return j;
          --target;
        }
        return 0;  // unreachable: count > 0
      };
      auto propose_from = [&](const Pattern& ant, size_t parent_idx,
                              size_t evidence) {
        std::vector<Gpar> ext = extend(ant);
        for (uint32_t e = 0; e < ext.size(); ++e) {
          CandidateProposal p;
          p.parent = parent_idx;
          p.ext_ordinal = e;
          p.structural_hash = StructuralHash(ext[e].pr());
          p.local_evidence = static_cast<uint32_t>(evidence);
          p.rule = std::move(ext[e]);
          out.push_back(std::move(p));
        }
      };
      if (parents.empty()) {
        const uint32_t owner = owner_of(
            0, [&](uint32_t j) { return !workers_[j].q_centers.empty(); });
        if (owner == wi) propose_from(base, kRootParent, w.q_centers.size());
        return out;
      }
      for (size_t pi = 0; pi < parents.size(); ++pi) {
        const MinedRule& parent = *parents[pi];
        const uint32_t owner = owner_of(pi, [&](uint32_t j) {
          return !parent.frag_pr_centers[j].empty();
        });
        if (owner != wi) continue;
        propose_from(parent.rule.antecedent(), pi,
                     parent.frag_pr_centers[wi].size());
      }
      return out;
    });
    // Coordinator: its generation role is the cross-fragment
    // (parent, ordinal) merge; the driver's dedup and cap follow.
    bsp_.RunCoordinator([&] {
      const double start = ThreadCpuSeconds();
      if (stats_.proposals_per_worker.empty()) {
        stats_.proposals_per_worker.assign(n, 0);
      }
      for (uint32_t i = 0; i < n; ++i) {
        stats_.proposals_per_worker[i] += proposals[i].size();
      }
      std::vector<CandidateProposal> merged =
          MergeProposals(std::move(proposals), &stats_);
      fresh->reserve(merged.size());
      fresh_parent->reserve(merged.size());
      for (CandidateProposal& p : merged) {
        fresh->push_back(std::move(p.rule));
        fresh_parent->push_back(p.parent);
      }
      stats_.coordinator_merge_seconds += ThreadCpuSeconds() - start;
    });
  }

  std::vector<std::shared_ptr<MinedRule>> Evaluate(
      const std::vector<Gpar>& candidates,
      const std::vector<size_t>& cand_parent,
      const std::vector<char>& other_ok,
      const std::vector<std::shared_ptr<MinedRule>>& parents) override {
    const uint32_t n = options_.num_workers;
    // A candidate is only probed at the centers where its parent rule
    // matched (per fragment, per side): anti-monotonicity guarantees every
    // other center fails, so skipping it cannot change any support. Round-1
    // candidates have no parent and probe the full round-0 pools.
    auto parent_of = [&](size_t ci) -> const MinedRule* {
      if (cand_parent[ci] == kRootParent) return nullptr;
      return parents[cand_parent[ci]].get();
    };
    auto pr_pool = [&](const MinedRule* parent, uint32_t i) {
      return parent ? std::span<const uint32_t>(parent->frag_pr_centers[i])
                    : std::span<const uint32_t>(workers_[i].q_centers);
    };
    auto ant_pool = [&](const MinedRule* parent, uint32_t i) {
      return parent ? std::span<const uint32_t>(parent->frag_ant_centers[i])
                    : std::span<const uint32_t>(workers_[i].qbar_centers);
    };

    // --- Workers: local support counting over owned centers.
    std::vector<std::vector<LocalStats>> local(n);
    bsp_.RunRound([&](uint32_t i) {
      WorkerState& w = workers_[i];
      local[i].assign(candidates.size(), {});
      for (size_t ci = 0; ci < candidates.size(); ++ci) {
        const Gpar& r = candidates[ci];
        LocalStats& ls = local[i][ci];
        const MinedRule* parent = parent_of(ci);
        // P_R matches live inside the q-match pool (or the parent's
        // surviving subset of it). Each pool binds its pattern once.
        const std::span<const uint32_t> prs = pr_pool(parent, i);
        w.centers_skipped += w.q_centers.size() - prs.size();
        if (!prs.empty()) w.matcher->Bind(r.pr());
        for (uint32_t c : prs) {
          const NodeId center = w.frag->centers[c];
          ++w.exists_calls;
          if (w.matcher->ProbeAt(center)) {
            ++ls.supp_r;
            ls.matches_global.push_back(center);
            ls.extendable = true;
            ls.pr_centers.push_back(c);
          }
        }
        // Antecedent membership: x-component locally (exact within the
        // d-hop fragment), remaining components pre-checked globally.
        const std::span<const uint32_t> ants = ant_pool(parent, i);
        if (other_ok[ci]) {
          w.centers_skipped += w.qbar_centers.size() - ants.size();
          if (!ants.empty()) w.matcher->Bind(r.x_component());
          for (uint32_t c : ants) {
            ++w.exists_calls;
            if (w.matcher->ProbeAt(w.frag->centers[c])) {
              ++ls.supp_qqbar;
              ls.ant_centers.push_back(c);
            }
          }
        }
        // Ship the lineage as deltas against the probed pools (the
        // match-set-delta BSP message).
        ls.pr_delta = EncodeMatchSet(ls.pr_centers, prs);
        ls.ant_delta = EncodeMatchSet(ls.ant_centers, ants);
        w.evidence_bytes_full += FullEncodedBytes(ls.pr_centers.size()) +
                                 FullEncodedBytes(ls.ant_centers.size());
        w.evidence_bytes_delta +=
            DeltaWireBytes(ls.pr_delta) + DeltaWireBytes(ls.ant_delta);
        ls.pr_centers = {};
        ls.ant_centers = {};
      }
    });

    // --- Coordinator: sum the local counts and decode the lineage.
    std::vector<std::shared_ptr<MinedRule>> rules(candidates.size());
    bsp_.RunCoordinator([&] {
      // Each parent's evidence entry. All keys of `entry_of_` belong to
      // rules of one round, alive together when inserted, so a live
      // parent's lookup cannot alias another rule.
      std::vector<uint32_t> parent_entry;
      if (evidence_ != nullptr) {
        parent_entry.reserve(parents.size());
        for (const auto& p : parents) {
          parent_entry.push_back(entry_of_.at(p.get()));
        }
        entry_of_.clear();
      }
      for (size_t ci = 0; ci < candidates.size(); ++ci) {
        auto rule = std::make_shared<MinedRule>();
        rule->rule = candidates[ci];
        const MinedRule* parent = parent_of(ci);
        rule->frag_pr_centers.resize(n);
        rule->frag_ant_centers.resize(n);
        for (uint32_t i = 0; i < n; ++i) {
          LocalStats& ls = local[i][ci];
          rule->supp += ls.supp_r;
          rule->supp_qqbar += ls.supp_qqbar;
          rule->extendable = rule->extendable || ls.extendable;
          rule->matches.insert(rule->matches.end(), ls.matches_global.begin(),
                               ls.matches_global.end());
          // Decode against the same pools the worker encoded from; the
          // round trip is exact (the worker encoded a true subset).
          rule->frag_pr_centers[i] =
              DecodeMatchSet(ls.pr_delta, pr_pool(parent, i)).value();
          rule->frag_ant_centers[i] =
              DecodeMatchSet(ls.ant_delta, ant_pool(parent, i)).value();
        }
        std::sort(rule->matches.begin(), rule->matches.end());
        if (evidence_ != nullptr) {
          EvidenceEntry ent;
          ent.rule = candidates[ci];
          ent.parent = parent == nullptr ? kEvidenceRoot
                                         : parent_entry[cand_parent[ci]];
          ent.ant_probed = other_ok[ci] != 0;
          ent.pr_matches = rule->matches;
          for (uint32_t i = 0; i < n; ++i) {
            AppendGlobal(rule->frag_ant_centers[i], *workers_[i].frag,
                         &ent.ant_matches);
          }
          std::sort(ent.ant_matches.begin(), ent.ant_matches.end());
          entry_of_[rule.get()] =
              static_cast<uint32_t>(evidence_->entries.size());
          evidence_->entries.push_back(std::move(ent));
        }
        rules[ci] = std::move(rule);
      }
    });
    return rules;
  }

  /// Folds the per-worker counters into the run's stats.
  void FinishStats() const {
    for (const WorkerState& w : workers_) {
      stats_.exists_calls += w.exists_calls;
      stats_.centers_skipped_by_parent += w.centers_skipped;
      stats_.evidence_bytes_full += w.evidence_bytes_full;
      stats_.evidence_bytes_delta += w.evidence_bytes_delta;
      stats_.plans_shared_hits += w.matcher->plan_store_hits();
    }
  }

 private:
  BspRuntime& bsp_;
  const Predicate& q_;
  const DmineOptions& options_;
  DmineStats& stats_;
  RuleSetEvidence* evidence_;
  std::vector<WorkerState> workers_;
  /// Evidence entry index of each rule the last `Evaluate` produced.
  std::unordered_map<const MinedRule*, uint32_t> entry_of_;
};

}  // namespace

std::vector<CandidateProposal> MergeProposals(
    std::vector<std::vector<CandidateProposal>> per_worker,
    DmineStats* stats) {
  // (parent, ext_ordinal) is an exact identity: GenerateExtensions is
  // deterministic, so two fragments proposing the same key materialized the
  // same grown pattern. Re-sorting by that key recovers the centralized
  // emission order — parents in round-list order, ordinals in generation
  // order — which keeps the downstream dedup/cap stream byte-identical to
  // the centralized path's. This is coordinator critical-path code: sort
  // lightweight indices, not the Gpar-carrying proposals, and move each
  // surviving proposal exactly once.
  size_t total = 0;
  for (const auto& worker : per_worker) total += worker.size();
  std::vector<CandidateProposal> flat;
  flat.reserve(total);
  for (std::vector<CandidateProposal>& worker : per_worker) {
    for (CandidateProposal& p : worker) flat.push_back(std::move(p));
  }
  std::vector<size_t> order(flat.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Stable: among duplicate keys the earliest-worker proposal wins. The
  // checksum tiebreaker keeps equal-checksum duplicates adjacent even when
  // a mismatched proposal shares their key (the double-propose bug state),
  // so the single out.back() comparison below collapses every true
  // duplicate; in healthy runs keys are unique and the tiebreaker is inert.
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (flat[a].parent != flat[b].parent) {
      return flat[a].parent < flat[b].parent;
    }
    if (flat[a].ext_ordinal != flat[b].ext_ordinal) {
      return flat[a].ext_ordinal < flat[b].ext_ordinal;
    }
    return flat[a].structural_hash < flat[b].structural_hash;
  });
  std::vector<CandidateProposal> out;
  out.reserve(flat.size());
  for (size_t idx : order) {
    CandidateProposal& p = flat[idx];
    if (!out.empty() && out.back().parent == p.parent &&
        out.back().ext_ordinal == p.ext_ordinal &&
        out.back().structural_hash == p.structural_hash) {
      out.back().local_evidence += p.local_evidence;
      ++stats->cross_fragment_merged;
    } else {
      // Distinct key — or a checksum mismatch on an equal key, which means
      // the proposals do NOT denote the same grown pattern (an ownership or
      // enumeration bug): keep both rather than silently dropping a rule;
      // the automorphism dedup downstream decides with exact tests.
      out.push_back(std::move(p));
    }
  }
  return out;
}

std::vector<size_t> DedupCandidates(
    const std::vector<Gpar>& fresh, size_t max_keep,
    std::unordered_map<uint64_t, std::vector<Pattern>>* seen_buckets,
    bool bisim_prefilter, DmineStats* stats) {
  std::vector<size_t> kept;
  for (size_t idx = 0; idx < fresh.size() && kept.size() < max_keep; ++idx) {
    const Gpar& g = fresh[idx];
    auto& bucket = (*seen_buckets)[IsomorphismBucketHash(g.pr())];
    bool duplicate = false;
    for (const Pattern& p : bucket) {
      if (bisim_prefilter) {
        ++stats->bisim_tests;
        // Lemma 4: not bisimilar => not automorphic; skip the exact test.
        if (!AreBisimilarDesignated(p, g.pr())) continue;
      }
      ++stats->iso_tests;
      if (AreIsomorphic(p, g.pr(), /*preserve_designated=*/true)) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) {
      ++stats->automorphic_merged;
      continue;
    }
    bucket.push_back(g.pr());
    kept.push_back(idx);
  }
  return kept;
}

Result<DmineResult> Dmine(const Graph& g, const Predicate& q,
                          const DmineOptions& options,
                          RuleSetEvidence* evidence) {
  if (options.num_workers == 0) {
    return Status::InvalidArgument("num_workers must be positive");
  }
  GPAR_RETURN_NOT_OK(ValidateMiningOptions(options));

  DmineResult result;
  BspRuntime bsp(options.num_workers);
  const auto span = g.nodes_with_label(q.x_label);
  const std::vector<NodeId> centers(span.begin(), span.end());
  GPAR_ASSIGN_OR_RETURN(
      Partitioning parts,
      PartitionGraph(g, centers, {options.num_workers, options.d}));

  if (evidence != nullptr) {
    evidence->q_pool.clear();
    evidence->qbar_pool.clear();
    evidence->entries.clear();
  }
  FragmentEvaluator ev(&bsp, parts, q, options, &result.stats, evidence);
  DiversifiedTopK top = RunLevelwise(g, q, options, ev, &result.stats);
  ev.FinishStats();
  result.topk = std::move(top.topk);
  result.objective = top.objective;
  result.times = bsp.FinishTiming();
  return result;
}

}  // namespace gpar
