#include "mine/dmine.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/timer.h"
#include "graph/partition.h"
#include "match/matcher.h"
#include "mine/levelwise.h"
#include "pattern/automorphism.h"
#include "pattern/bisimulation.h"
#include "pattern/pattern_ops.h"

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
  std::vector<NodeId> q_centers;     // owned centers in P_q(x, ·)
  std::vector<NodeId> qbar_centers;  // owned centers in the ~q pool
  uint64_t exists_calls = 0;
  uint64_t centers_skipped = 0;
};

/// One candidate's matches at one fragment, as global center ids in probe
/// order. They become the rule's lineage: its children's probe pools.
struct LocalMatches {
  std::vector<NodeId> pr_centers;   // P_R matched
  std::vector<NodeId> ant_centers;  // ~q centers the x-component matched
};

/// The fragment that generates parent `pi`'s extensions: round-robin by
/// parent index over the fragments where `survives(j)`. Every parent
/// survives somewhere: it is extendable (supp > 0), and the bare predicate
/// of round 1 has supp_q > 0.
template <typename Survives>
uint32_t OwnerOf(size_t pi, uint32_t n, Survives survives) {
  uint32_t count = 0;
  for (uint32_t j = 0; j < n; ++j) count += survives(j) ? 1 : 0;
  uint32_t target = static_cast<uint32_t>(pi % count);
  for (uint32_t j = 0; j < n; ++j) {
    if (survives(j) && target-- == 0) return j;
  }
  return 0;  // unreachable: target < count
}

/// Appends the sorted `run` to the sorted `*out`, keeping it sorted. The
/// workers' runs are sorted (fragment centers are, and every probe loop
/// keeps pool order) and disjoint (center ownership is), so merging them
/// one by one assembles a global set without a sort.
void MergeRun(const std::vector<NodeId>& run, std::vector<NodeId>* out) {
  const auto mid = static_cast<std::ptrdiff_t>(out->size());
  out->insert(out->end(), run.begin(), run.end());
  std::inplace_merge(out->begin(), out->begin() + mid, out->end());
}

/// DMine's evaluation strategy: BSP fragment workers generate candidates
/// and count local supports; coordinator sections concatenate the
/// candidates and merge the per-fragment pools, match sets and lineage.
class FragmentEvaluator : public LevelwiseEvaluator {
 public:
  FragmentEvaluator(BspRuntime* bsp, const Graph& g, const Partitioning& parts,
                    const Predicate& q, const DmineOptions& options,
                    DmineStats* stats)
      : bsp_(*bsp), g_(g), q_(q), options_(options), stats_(*stats),
        workers_(options.num_workers) {
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
      w.matcher = std::make_unique<VF2Matcher>(g_);
      w.matcher->set_plan_store(&plans);
      if (w.frag->centers.empty()) return;
      w.matcher->Bind(pq);
      for (NodeId center : w.frag->centers) {
        ++w.exists_calls;
        if (w.matcher->ProbeAt(center)) {
          w.q_centers.push_back(center);
        } else if (g_.HasOutLabel(center, q_.edge_label)) {
          w.qbar_centers.push_back(center);
        }
      }
    });
    LevelwisePools pools;
    bsp_.RunCoordinator([&] {
      for (const WorkerState& w : workers_) {
        MergeRun(w.q_centers, &pools.q_pool);
        MergeRun(w.qbar_centers, &pools.qbar_pool);
      }
    });
    return pools;
  }

  // Workers generate the extensions of the parents that survive locally
  // (round 1 extends the bare predicate from the q-pool). Each parent has
  // one owner (`OwnerOf`), which every worker derives from the lineage it
  // already holds, and the owner writes the parent's extensions into the
  // parent's slot. Concatenating the slots in parent order gives exactly
  // the sequential generator's stream.
  void Generate(const Pattern& base,
                const std::vector<std::shared_ptr<MinedRule>>& parents,
                const Extender& extend, std::vector<Gpar>* fresh,
                std::vector<size_t>* fresh_parent) override {
    const uint32_t n = options_.num_workers;
    const bool root = parents.empty();
    std::vector<std::vector<Gpar>> slots(root ? 1 : parents.size());
    const std::vector<uint64_t> generated = bsp_.RunRound([&](uint32_t wi) {
      uint64_t count = 0;
      for (size_t pi = 0; pi < slots.size(); ++pi) {
        const uint32_t owner = OwnerOf(pi, n, [&](uint32_t j) {
          return root ? !workers_[j].q_centers.empty()
                      : !parents[pi]->frag_pr_centers[j].empty();
        });
        if (owner != wi) continue;
        slots[pi] = extend(root ? base : parents[pi]->rule.antecedent());
        count += slots[pi].size();
      }
      return count;
    });
    bsp_.RunCoordinator([&] {
      const double start = ThreadCpuSeconds();
      stats_.proposals_per_worker.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        stats_.proposals_per_worker[i] += generated[i];
      }
      for (size_t pi = 0; pi < slots.size(); ++pi) {
        for (Gpar& r : slots[pi]) {
          fresh->push_back(std::move(r));
          fresh_parent->push_back(root ? kRootParent : pi);
        }
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

    // --- Workers: local support counting over owned centers.
    std::vector<std::vector<LocalMatches>> local(n);
    bsp_.RunRound([&](uint32_t i) {
      WorkerState& w = workers_[i];
      local[i].assign(candidates.size(), {});
      for (size_t ci = 0; ci < candidates.size(); ++ci) {
        const Gpar& r = candidates[ci];
        LocalMatches& lm = local[i][ci];
        const MinedRule* parent = parent_of(ci);
        // P_R matches live inside the q-match pool (or the parent's
        // surviving subset of it). Each pool binds its pattern once.
        const std::vector<NodeId>& prs =
            parent ? parent->frag_pr_centers[i] : w.q_centers;
        w.centers_skipped += w.q_centers.size() - prs.size();
        if (!prs.empty()) w.matcher->Bind(r.pr());
        for (NodeId center : prs) {
          ++w.exists_calls;
          if (w.matcher->ProbeAt(center)) lm.pr_centers.push_back(center);
        }
        // Antecedent membership: x-component locally (exact within the
        // d-hop fragment), remaining components pre-checked globally.
        if (!other_ok[ci]) continue;
        const std::vector<NodeId>& ants =
            parent ? parent->frag_ant_centers[i] : w.qbar_centers;
        w.centers_skipped += w.qbar_centers.size() - ants.size();
        if (!ants.empty()) w.matcher->Bind(r.x_component());
        for (NodeId center : ants) {
          ++w.exists_calls;
          if (w.matcher->ProbeAt(center)) lm.ant_centers.push_back(center);
        }
      }
    });

    // --- Coordinator: merge the local matches and keep the lineage.
    std::vector<std::shared_ptr<MinedRule>> rules(candidates.size());
    bsp_.RunCoordinator([&] {
      for (size_t ci = 0; ci < candidates.size(); ++ci) {
        auto rule = std::make_shared<MinedRule>();
        rule->rule = candidates[ci];
        rule->frag_pr_centers.resize(n);
        rule->frag_ant_centers.resize(n);
        for (uint32_t i = 0; i < n; ++i) {
          LocalMatches& lm = local[i][ci];
          MergeRun(lm.pr_centers, &rule->matches);
          MergeRun(lm.ant_centers, &rule->ant_matches);
          rule->frag_pr_centers[i] = std::move(lm.pr_centers);
          rule->frag_ant_centers[i] = std::move(lm.ant_centers);
        }
        rule->supp = rule->matches.size();
        rule->supp_qqbar = rule->ant_matches.size();
        rule->extendable = rule->supp > 0;
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
      stats_.plans_shared_hits += w.matcher->plan_store_hits();
    }
  }

 private:
  BspRuntime& bsp_;
  const Graph& g_;
  const Predicate& q_;
  const DmineOptions& options_;
  DmineStats& stats_;
  std::vector<WorkerState> workers_;
};

}  // namespace

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
  Timer partition_timer;
  GPAR_ASSIGN_OR_RETURN(
      Partitioning parts,
      PartitionGraph(g, centers, {options.num_workers, options.d}));
  result.stats.partition_seconds = partition_timer.Seconds();

  FragmentEvaluator ev(&bsp, g, parts, q, options, &result.stats);
  DiversifiedTopK top =
      RunLevelwise(g, q, options, ev, &result.stats, evidence);
  ev.FinishStats();
  result.topk = std::move(top.topk);
  result.objective = top.objective;
  result.times = bsp.FinishTiming();
  return result;
}

}  // namespace gpar
