// Property-based suites: each TEST_P sweeps randomized instances (seeded,
// deterministic) and checks an invariant the paper's formal development
// relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generator.h"
#include "graph/graph_builder.h"
#include "graph/graph_delta.h"
#include "graph/graph_io.h"
#include "graph/neighborhood.h"
#include "graph/partition.h"
#include "graph/stats.h"
#include "maintain/rule_maintainer.h"
#include "match/matcher.h"
#include "match/multi_pattern.h"
#include "mine/dmine.h"
#include "mine/naive_miner.h"
#include "pattern/automorphism.h"
#include "pattern/bisimulation.h"
#include "pattern/pattern_generator.h"
#include "pattern/pattern_ops.h"
#include "rule/diversity.h"
#include "rule/metrics.h"
#include "rule/rule_snapshot.h"
#include "bfs_plan_oracle.h"
#include "seed_oracle.h"
#include "test_util.h"

namespace gpar {
namespace {

/// Shared randomized scenario: a synthetic graph plus a workload of GPARs
/// lifted from it.
struct Scenario {
  Graph graph;
  Predicate q;
  std::vector<Gpar> rules;
};

Scenario MakeScenario(uint64_t seed) {
  Scenario s;
  s.graph = MakeSynthetic(600, 1800, 25, seed);
  auto freq = FrequentEdgePatterns(s.graph, 1);
  s.q = {freq[0].src_label, freq[0].edge_label, freq[0].dst_label};
  GparGenOptions opt;
  opt.num_nodes = 4;
  opt.num_edges = 4;
  opt.max_radius = 2;
  opt.seed = seed * 31 + 7;
  s.rules = GenerateGparWorkload(s.graph, s.q, 5, opt);
  return s;
}

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST_P(SeededProperty, SupportAntiMonotonicUnderExtension) {
  // Section 3: supp(Q', G) >= supp(Q, G) whenever Q' ⊑ Q. Extensions add
  // one edge, so every extension's support is bounded by its parent's.
  Scenario s = MakeScenario(GetParam());
  VF2Matcher m(s.graph);
  auto seeds = FrequentEdgePatterns(s.graph, 6);
  for (const Gpar& r : s.rules) {
    uint64_t parent_supp = 0;
    for (NodeId v : s.graph.nodes_with_label(s.q.x_label)) {
      if (m.ExistsAt(r.pr(), v)) ++parent_supp;
    }
    auto extensions =
        GenerateExtensions(r.antecedent(), s.q.edge_label, 2, 6, seeds);
    // Probe a few extensions (they are numerous).
    size_t probed = 0;
    for (const Gpar& ext : extensions) {
      if (++probed > 4) break;
      uint64_t ext_supp = 0;
      for (NodeId v : s.graph.nodes_with_label(s.q.x_label)) {
        if (m.ExistsAt(ext.pr(), v)) ++ext_supp;
      }
      EXPECT_LE(ext_supp, parent_supp)
          << "anti-monotonicity violated at seed " << GetParam();
    }
  }
}

/// Canonical fingerprint of a mined pool: per rule, its bucket key,
/// support and match set, sorted — two pools with equal fingerprints hold
/// the same rules matching at the same centers.
std::vector<std::string> PoolFingerprint(
    const std::vector<std::shared_ptr<MinedRule>>& pool) {
  std::vector<std::string> out;
  for (const auto& r : pool) {
    std::string fp =
        IsomorphismBucketKey(r->rule.pr()) + "|s=" + std::to_string(r->supp);
    fp += "|m=";
    for (NodeId v : r->matches) fp += std::to_string(v) + ",";
    out.push_back(std::move(fp));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST_P(SeededProperty, ParentPruneEquivalence) {
  // Parent-match pruning (workers probe an extension only at the centers
  // where its parent matched) is an optimization, not an approximation.
  // With the reduction rules off and the round cap above the candidate
  // count, DMine must accept exactly the pool of NaiveMine, which probes
  // every q-pool center of the whole graph: same rules, supports and match
  // sets. A k above the pool size under full rediversification makes
  // DMine's top-k its whole accepted pool.
  Scenario s = MakeScenario(GetParam());
  DmineOptions opt;
  opt.num_workers = 3;
  opt.d = 2;
  opt.sigma = 2;
  opt.max_pattern_edges = 3;
  opt.seed_edge_limit = 6;
  opt.max_candidates_per_round = 1u << 20;
  opt.enable_reduction_rules = false;

  auto naive = NaiveMine(s.graph, s.q, opt);
  ASSERT_TRUE(naive.ok()) << naive.status();
  ASSERT_FALSE(naive->all_rules.empty());
  opt.k = static_cast<uint32_t>(naive->all_rules.size()) + 2;
  opt.enable_incremental_div = false;
  auto pruned = Dmine(s.graph, s.q, opt);
  ASSERT_TRUE(pruned.ok()) << pruned.status();

  EXPECT_EQ(pruned->stats.accepted, naive->all_rules.size())
      << "pool diverged at seed " << GetParam();
  EXPECT_EQ(PoolFingerprint(pruned->topk), PoolFingerprint(naive->all_rules))
      << "pool diverged at seed " << GetParam();
  // The prune engaged: some probe was skipped.
  EXPECT_GT(pruned->stats.centers_skipped_by_parent, 0u);

  // supp(Q~q) and conf, recounted without pruning over the whole ~q pool.
  // NaiveMine cannot serve here: it matches the antecedent as one pattern,
  // injective across its components, while DMine (like the maintainer and
  // EIP) matches the x-component at the center and checks the components
  // without x anywhere in G, so the two differ on rules whose other
  // component only matches through the center itself.
  VF2Matcher m(s.graph);
  const QStats qs = ComputeQStats(m, s.q);
  for (const auto& r : pruned->topk) {
    bool others = true;
    for (const Pattern& comp : r->rule.other_components()) {
      others = others && m.Exists(comp);
    }
    uint64_t supp_qqbar = 0;
    for (NodeId v : qs.qbar_nodes) {
      if (others && m.ExistsAt(r->rule.x_component(), v)) ++supp_qqbar;
    }
    EXPECT_EQ(r->supp_qqbar, supp_qqbar)
        << IsomorphismBucketKey(r->rule.pr()) << " at seed " << GetParam();
    EXPECT_DOUBLE_EQ(r->conf, BayesFactorConf(r->supp, qs.supp_qbar,
                                              supp_qqbar, qs.supp_q));
  }
}

TEST_P(SeededProperty, IncrementalDivEquivalence) {
  // Incremental diversification (incDiv, Section 4.2) maintains the
  // diversified top-k round-over-round as a 2-approximation, so its
  // SELECTION may legitimately differ from recomputing greedily from
  // scratch every round (the DMineno ablation's diversification half).
  // What the ablation flag must never change is the mining itself: with
  // reductions disabled on both sides (they are only wired through the
  // incremental path), the candidate pool, supports, and probe counts are
  // bit-identical, both top-ks draw only sigma-qualified nontrivial rules,
  // the objectives stay within the paper's approximation factor of each
  // other, and the incremental path is deterministic run-over-run.
  Scenario s = MakeScenario(GetParam());
  DmineOptions opt;
  opt.num_workers = 3;
  opt.k = 4;
  opt.d = 2;
  opt.sigma = 2;
  opt.max_pattern_edges = 3;
  opt.seed_edge_limit = 6;
  opt.enable_reduction_rules = false;

  opt.enable_incremental_div = true;
  auto incremental = Dmine(s.graph, s.q, opt);
  opt.enable_incremental_div = false;
  auto scratch = Dmine(s.graph, s.q, opt);
  ASSERT_TRUE(incremental.ok()) << incremental.status();
  ASSERT_TRUE(scratch.ok()) << scratch.status();

  // Diversification never feeds back into candidate generation, so the
  // mined pool is identical either way.
  EXPECT_EQ(incremental->stats.accepted, scratch->stats.accepted)
      << "pool diverged at seed " << GetParam();
  EXPECT_EQ(incremental->stats.trivial_discarded,
            scratch->stats.trivial_discarded);
  EXPECT_EQ(incremental->stats.candidates_verified,
            scratch->stats.candidates_verified);
  EXPECT_EQ(incremental->stats.exists_calls, scratch->stats.exists_calls);

  // Same k drawn from the same pool, every entry sigma-qualified and
  // nontrivial, and the two objectives within the 2-approximation band.
  ASSERT_EQ(incremental->topk.size(), scratch->topk.size());
  for (const auto& r : incremental->topk) {
    EXPECT_GE(r->supp, opt.sigma);
    EXPECT_GT(r->supp_qqbar, 0u);
  }
  EXPECT_GT(incremental->objective, 0.0);
  EXPECT_LE(scratch->objective, 2 * incremental->objective + 1e-9)
      << "incDiv lost more than the paper's approximation factor at seed "
      << GetParam();
  EXPECT_LE(incremental->objective, 2 * scratch->objective + 1e-9);

  // The maintained top-k is deterministic across repeat runs.
  opt.enable_incremental_div = true;
  auto repeat = Dmine(s.graph, s.q, opt);
  ASSERT_TRUE(repeat.ok()) << repeat.status();
  EXPECT_NEAR(incremental->objective, repeat->objective, 1e-12);
  ASSERT_EQ(incremental->topk.size(), repeat->topk.size());
  for (size_t i = 0; i < incremental->topk.size(); ++i) {
    EXPECT_EQ(IsomorphismBucketKey(incremental->topk[i]->rule.pr()),
              IsomorphismBucketKey(repeat->topk[i]->rule.pr()))
        << "incremental top-k not deterministic at seed " << GetParam();
    EXPECT_EQ(incremental->topk[i]->matches, repeat->topk[i]->matches);
  }
}

TEST_P(SeededProperty, MatcherScratchReuseMatchesFreshMatcher) {
  // The matcher reuses scratch state (injectivity bitmap, candidate
  // buffers, plan cache) across searches; a long-lived matcher must answer
  // exactly like a throwaway matcher constructed per probe.
  Scenario s = MakeScenario(GetParam());
  VF2Matcher reused(s.graph);
  auto centers = s.graph.nodes_with_label(s.q.x_label);
  for (const Gpar& r : s.rules) {
    size_t probes = 0;
    for (NodeId v : centers) {
      if (++probes > 25) break;
      VF2Matcher fresh(s.graph);
      EXPECT_EQ(reused.ExistsAt(r.pr(), v), fresh.ExistsAt(r.pr(), v))
          << "P_R divergence at seed " << GetParam() << " node " << v;
      EXPECT_EQ(reused.ExistsAt(r.antecedent(), v),
                fresh.ExistsAt(r.antecedent(), v))
          << "antecedent divergence at seed " << GetParam() << " node " << v;
    }
  }
  // The reused matcher planned each distinct (pattern, anchor) once.
  EXPECT_GT(reused.plans_cached(), 0u);
  EXPECT_LE(reused.plans_cached(), 2 * s.rules.size());

  // Match's multi-pattern sharing answers like one ExistsAt per pattern:
  // over the P_R patterns, over the x-components (alone, and seeded with
  // the P_R answers as MatchEvaluator runs them), and over both at once,
  // where x-component_i ⊑ P_R_i guarantees implications to follow.
  std::vector<const Pattern*> prs, xcs;
  for (const Gpar& r : s.rules) {
    prs.push_back(&r.pr());
    xcs.push_back(&r.x_component());
  }
  std::vector<const Pattern*> both = prs;
  both.insert(both.end(), xcs.begin(), xcs.end());
  VF2Matcher shared_m(s.graph);
  const size_t probed = std::min<size_t>(centers.size(), 25);
  // Returns the exists-queries the shared evaluation issued.
  auto check = [&](const std::vector<const Pattern*>& set,
                   const std::vector<const Pattern*>* seed_from) {
    const MultiPatternEvaluator shared(set);
    std::vector<char> got, known;
    for (size_t i = 0; i < probed; ++i) {
      const NodeId v = centers[i];
      known.clear();
      if (seed_from != nullptr) {
        for (const Pattern* p : *seed_from) {
          known.push_back(reused.ExistsAt(*p, v) ? 1 : 0);
        }
      }
      shared.EvaluateAt(shared_m, v, &got,
                        seed_from != nullptr ? &known : nullptr);
      for (size_t j = 0; j < set.size(); ++j) {
        EXPECT_EQ(got[j], reused.ExistsAt(*set[j], v) ? 1 : 0)
            << "shared divergence at seed " << GetParam() << " node " << v
            << " pattern " << j << " of " << set.size();
      }
    }
    return shared.queries_issued();
  };
  check(prs, nullptr);
  check(xcs, nullptr);
  check(xcs, &prs);
  EXPECT_LT(check(both, nullptr), both.size() * probed)
      << "sharing skipped no query at seed " << GetParam();
}

/// The patterns the plan-order battery probes: P_R, the x-component and
/// the antecedent (disconnected when y is isolated) of the scenario's rules
/// and of a wider generated workload, plus per rule a variant of P_R with a
/// multiplicity and one with an extra disconnected frequent edge.
std::vector<Pattern> PlanBatteryPatterns(const Scenario& s, uint64_t seed) {
  GparGenOptions wide;
  wide.num_nodes = 5;
  wide.num_edges = 6;
  wide.max_radius = 2;
  wide.seed = seed * 97 + 13;
  std::vector<Gpar> rules = s.rules;
  for (Gpar& r : GenerateGparWorkload(s.graph, s.q, 4, wide)) {
    rules.push_back(std::move(r));
  }
  const std::vector<EdgePatternStat> freq = FrequentEdgePatterns(s.graph, 3);
  std::vector<Pattern> out;
  for (const Gpar& r : rules) {
    out.push_back(r.pr());
    out.push_back(r.x_component());
    out.push_back(r.antecedent());
    const Pattern& pr = r.pr();
    // The last node that is neither x nor y gets multiplicity 2.
    PNodeId multi = kNoPatternNode;
    for (PNodeId u = 0; u < pr.num_nodes(); ++u) {
      if (u != pr.x() && u != pr.y()) multi = u;
    }
    if (multi != kNoPatternNode) {
      Pattern m;
      for (PNodeId u = 0; u < pr.num_nodes(); ++u) {
        m.AddNode(pr.node(u).label, u == multi ? 2 : pr.node(u).multiplicity);
      }
      for (const PatternEdge& e : pr.edges()) m.AddEdge(e.src, e.label, e.dst);
      m.set_x(pr.x());
      m.set_y(pr.y());
      out.push_back(std::move(m));
    }
    Pattern d = pr;
    const EdgePatternStat& f = freq.back();
    d.AddEdge(d.AddNode(f.src_label), f.edge_label, d.AddNode(f.dst_label));
    out.push_back(std::move(d));
  }
  return out;
}

/// Sorted embeddings of `p` with x at `v`, up to `limit`.
std::vector<std::vector<NodeId>> EmbeddingSet(VF2Matcher& m, const Pattern& p,
                                              NodeId v, uint64_t limit) {
  std::vector<std::vector<NodeId>> out;
  const Anchor a{p.x(), v};
  m.Enumerate(
      p, {&a, 1},
      [&](std::span<const NodeId> mapping) {
        out.emplace_back(mapping.begin(), mapping.end());
        return true;
      },
      limit);
  std::sort(out.begin(), out.end());
  return out;
}

TEST_P(SeededProperty, FailFirstPlansAnswerLikeBfsPlans) {
  // Plan order only steers cost. Fail-first plans (private caches) and the
  // old breadth-first plans (fed through a store) give the same ExistsAt
  // answer at every center, bound probes give the same answers again, and
  // anchored enumeration yields the same embedding set.
  Scenario s = MakeScenario(GetParam());
  const std::vector<Pattern> patterns = PlanBatteryPatterns(s, GetParam());
  SearchPlanStore bfs_plans(s.graph);
  const PlanBuilder bfs = test::BfsPlanBuilder(s.graph);
  size_t reordered = 0;
  for (const Pattern& p : patterns) {
    const PNodeId x = p.x();
    bfs_plans.Prepare(p, {&x, 1}, bfs);
    std::vector<PNodeId> first_copy;
    const Pattern expanded = p.ExpandMultiplicities(&first_copy);
    if (BuildSearchPlan(expanded, {first_copy[x]}, s.graph).order !=
        test::BfsSearchPlan(expanded, {first_copy[x]}, s.graph).order) {
      ++reordered;
    }
  }
  EXPECT_GT(reordered, 0u) << "no pattern exercised a different order";

  const auto centers = s.graph.nodes_with_label(s.q.x_label);
  VF2Matcher fail_first(s.graph);
  VF2Matcher breadth_first(s.graph);
  breadth_first.set_plan_store(&bfs_plans);
  uint64_t probes = 0;
  for (const Pattern& p : patterns) {
    std::vector<char> expected;
    for (NodeId v : centers) {
      const bool want = breadth_first.ExistsAt(p, v);
      ++probes;
      expected.push_back(want ? 1 : 0);
      EXPECT_EQ(fail_first.ExistsAt(p, v), want)
          << "seed " << GetParam() << " node " << v;
    }
    fail_first.Bind(p);
    for (size_t i = 0; i < centers.size(); ++i) {
      EXPECT_EQ(fail_first.ProbeAt(centers[i]) ? 1 : 0, expected[i])
          << "bound probe, seed " << GetParam();
    }
    for (size_t i = 0; i < centers.size() && i < 15; ++i) {
      const NodeId v = centers[i];
      EXPECT_EQ(EmbeddingSet(fail_first, p, v, 0),
                EmbeddingSet(breadth_first, p, v, 0))
          << "embedding sets differ, seed " << GetParam() << " node " << v;
      probes += 1;
    }
  }
  // Every breadth-first search really ran on the store's plans.
  EXPECT_EQ(breadth_first.plan_store_hits(), probes);
}

TEST_P(SeededProperty, TripleTableAfterPatchEqualsRebuilt) {
  // PatchGraph reassembles through FinishFromOutCsr; its triple table
  // equals one built from scratch on the final edge list.
  Scenario s = MakeScenario(GetParam());
  const Graph& g = s.graph;
  GraphDelta delta;
  for (NodeId v = static_cast<NodeId>(GetParam());
       v < g.num_nodes() && delta.deletes.size() < 30; v += 7) {
    if (!g.out_edges(v).empty()) {
      const AdjEntry e = g.out_edges(v).back();
      delta.deletes.push_back({v, e.label, e.other});
    }
  }
  const LabelId fresh = g.labels_ptr()->Intern("battery_edge");
  for (NodeId v = 0; v + 11 < g.num_nodes() && delta.inserts.size() < 30;
       v += 13) {
    delta.inserts.push_back({v, s.q.edge_label, v + 11});
    delta.inserts.push_back({v + 11, fresh, v});
  }
  auto patch = PatchGraph(g, delta);
  ASSERT_TRUE(patch.ok()) << patch.status();

  GraphBuilder b(g.labels_ptr());
  for (NodeId v = 0; v < g.num_nodes(); ++v) b.AddNode(g.node_label(v));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const AdjEntry& e : patch->graph.out_edges(v)) {
      ASSERT_TRUE(b.AddEdge(v, e.label, e.other).ok());
    }
  }
  const Graph rebuilt = std::move(b).Build();
  const std::span<const EdgePatternStat> patched = patch->graph.edge_triples();
  const std::span<const EdgePatternStat> scratch = rebuilt.edge_triples();
  EXPECT_TRUE(std::equal(patched.begin(), patched.end(), scratch.begin(),
                         scratch.end()));
  // The new label's edges are counted under their triples.
  uint64_t fresh_edges = 0;
  for (const EdgePatternStat& t : patched) {
    if (t.edge_label == fresh) fresh_edges += t.count;
  }
  EXPECT_EQ(fresh_edges, delta.inserts.size() / 2);
}

TEST_P(SeededProperty, MatchingIsLocalWithinEvalRadius) {
  // Data locality (Section 4.2): v ∈ P_R(x, G) iff v ∈ P_R(x, G_d(v)) for
  // d = eval_radius — the foundation of both parallel algorithms.
  Scenario s = MakeScenario(GetParam());
  VF2Matcher global(s.graph);
  auto centers = s.graph.nodes_with_label(s.q.x_label);
  size_t probes = 0;
  for (const Gpar& r : s.rules) {
    for (NodeId v : centers) {
      if (++probes > 60) break;
      DNeighborhood dn = ExtractDNeighborhood(s.graph, v, r.eval_radius());
      VF2Matcher local(dn.sub.graph);
      EXPECT_EQ(global.ExistsAt(r.pr(), v),
                local.ExistsAt(r.pr(), dn.center_local))
          << "locality violated at seed " << GetParam() << " node " << v;
    }
  }
}

TEST_P(SeededProperty, IsomorphicPatternsAreBisimilarAndShareBuckets) {
  // Lemma 4 direction, on randomized patterns: build an isomorphic copy by
  // reversing node declaration order; both tests must accept it.
  Scenario s = MakeScenario(GetParam());
  for (const Gpar& r : s.rules) {
    const Pattern& p = r.pr();
    Pattern copy = test::ReversedIsomorphicCopy(p);

    EXPECT_TRUE(AreIsomorphic(p, copy, /*preserve_designated=*/true));
    EXPECT_TRUE(AreBisimilarDesignated(p, copy));
    EXPECT_EQ(IsomorphismBucketKey(p), IsomorphismBucketKey(copy));
    EXPECT_EQ(IsomorphismBucketHash(p), IsomorphismBucketHash(copy));
  }
}

TEST_P(SeededProperty, PartitionInvariants) {
  Scenario s = MakeScenario(GetParam());
  std::vector<NodeId> centers;
  {
    auto span = s.graph.nodes_with_label(s.q.x_label);
    centers.assign(span.begin(), span.end());
  }
  for (uint32_t n : {2u, 5u}) {
    PartitionOptions opt;
    opt.num_fragments = n;
    opt.d = 2;
    auto parts = PartitionGraph(s.graph, centers, opt);
    ASSERT_TRUE(parts.ok());
    size_t owned = 0;
    for (const Fragment& f : parts->fragments) owned += f.centers.size();
    EXPECT_EQ(owned, centers.size());
    // Locality spot-check on the fragment node set.
    for (const Fragment& f : parts->fragments) {
      const std::vector<NodeId> nodes = FragmentNodes(s.graph, f, opt.d);
      for (NodeId global : f.centers) {
        for (NodeId w : NodesWithinRadius(s.graph, global, opt.d)) {
          EXPECT_TRUE(std::binary_search(nodes.begin(), nodes.end(), w));
        }
        break;  // one center per fragment suffices
      }
    }
  }
}

TEST_P(SeededProperty, GraphIoRoundTrip) {
  Graph g = MakeSynthetic(200, 600, 15, GetParam());
  std::ostringstream os;
  ASSERT_TRUE(WriteGraphText(g, os).ok());
  std::istringstream is(os.str());
  auto r = ReadGraphText(is);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_nodes(), g.num_nodes());
  EXPECT_EQ(r->num_edges(), g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(r->labels().Name(r->node_label(v)),
              g.labels().Name(g.node_label(v)));
    EXPECT_EQ(r->out_degree(v), g.out_degree(v));
  }
}

TEST_P(SeededProperty, JaccardIsAMetricOnMatchSets) {
  Scenario s = MakeScenario(GetParam());
  VF2Matcher m(s.graph);
  std::vector<std::vector<NodeId>> sets;
  for (const Gpar& r : s.rules) {
    auto images = m.Images(r.pr(), r.pr().x());
    std::sort(images.begin(), images.end());
    sets.push_back(std::move(images));
  }
  for (size_t i = 0; i < sets.size(); ++i) {
    EXPECT_DOUBLE_EQ(JaccardDistance(sets[i], sets[i]), 0.0);
    for (size_t j = 0; j < sets.size(); ++j) {
      double dij = JaccardDistance(sets[i], sets[j]);
      EXPECT_GE(dij, 0.0);
      EXPECT_LE(dij, 1.0);
      EXPECT_DOUBLE_EQ(dij, JaccardDistance(sets[j], sets[i]));
      // Triangle inequality (Jaccard distance is a true metric).
      for (size_t k = 0; k < sets.size(); ++k) {
        EXPECT_LE(dij, JaccardDistance(sets[i], sets[k]) +
                           JaccardDistance(sets[k], sets[j]) + 1e-12);
      }
    }
  }
}

/// The top-k *in order* with per-rule structure (StructuralHash),
/// supports, confidence and match sets, plus the objective: everything a
/// caller of either discovery engine sees.
std::string TopKFingerprint(const std::vector<std::shared_ptr<MinedRule>>& topk,
                            double objective) {
  std::ostringstream os;
  os.precision(17);
  os << "obj=" << objective << ";topk=[";
  for (const auto& rule : topk) {
    os << "{h=" << StructuralHash(rule->rule.pr()) << ";s=" << rule->supp
       << ";n=" << rule->supp_qqbar << ";c=" << rule->conf << ";m=";
    for (NodeId v : rule->matches) os << v << ',';
    os << '}';
  }
  os << ']';
  return os.str();
}

/// Full-result fingerprint: every stat a result-identity claim covers, plus
/// the top-k fingerprint. Two runs with equal fingerprints are
/// indistinguishable to a caller.
std::string ResultFingerprint(const DmineResult& r) {
  std::ostringstream os;
  os << "gen=" << r.stats.candidates_generated
     << ";ver=" << r.stats.candidates_verified
     << ";acc=" << r.stats.accepted
     << ";auto=" << r.stats.automorphic_merged
     << ";triv=" << r.stats.trivial_discarded << ';'
     << TopKFingerprint(r.topk, r.objective);
  return os.str();
}

DmineOptions BatteryOptions() {
  DmineOptions opt;
  opt.k = 4;
  opt.d = 2;
  opt.sigma = 2;
  opt.max_pattern_edges = 3;
  opt.seed_edge_limit = 6;
  return opt;
}

/// DMine's BSP run must equal the sequential reference (the levelwise
/// oracle in seed_oracle.h: one-thread generation, every center probed on
/// the whole graph, no fragments or lineage messages) at every worker
/// count: same top-k (order, supports, confidences, match sets) and
/// objective, same verified candidates and accepted rules, and per-worker
/// generation counts that sum to the candidates generated (single
/// ownership extends each parent once). n = 3 checks round-robin ownership
/// at an odd worker count.
void ExpectDmineMatchesSequential(const Scenario& s) {
  DmineOptions opt = BatteryOptions();
  const test::OracleSeed seq = test::SequentialSeed(s.graph, s.q, opt);
  const std::string want = TopKFingerprint(seq.topk, seq.objective);
  for (uint32_t n : {1u, 2u, 3u, 4u, 8u}) {
    opt.num_workers = n;
    auto r = Dmine(s.graph, s.q, opt);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(TopKFingerprint(r->topk, r->objective), want)
        << "DMine diverged from the sequential reference at n=" << n;
    EXPECT_EQ(r->stats.candidates_verified, seq.stats.candidates_evaluated);
    EXPECT_EQ(r->stats.accepted, seq.stats.rules_accepted);
    uint64_t generated = 0;
    for (uint64_t p : r->stats.proposals_per_worker) generated += p;
    EXPECT_EQ(generated, r->stats.candidates_generated) << "n=" << n;
  }
}

TEST_P(SeededProperty, WorkerGenEquivalence) {
  // Worker-side candidate generation is a relocation of work, not an
  // approximation: DMine's fragment workers must reproduce the sequential
  // generator's result exactly — the mirror of ParentPruneEquivalence for
  // the lineage pruning.
  ExpectDmineMatchesSequential(MakeScenario(GetParam()));
}

TEST_P(SeededProperty, FragmentMembershipEquivalence) {
  // A fragment's node set (`FragmentNodes`) is the sorted union of its
  // owned centers' N_d, and `FragmentSkew` sizes each fragment as the
  // subgraph it induces: |V_f| + |E_f| with |E_f| equal to both a direct
  // count and `BuildInducedSubgraph`'s edge count.
  Scenario s = MakeScenario(GetParam());
  std::vector<NodeId> centers;
  {
    auto span = s.graph.nodes_with_label(s.q.x_label);
    centers.assign(span.begin(), span.end());
  }
  for (uint32_t n : {1u, 2u, 4u, 8u}) {
    PartitionOptions opt;
    opt.num_fragments = n;
    opt.d = 2;
    auto parts = PartitionGraph(s.graph, centers, opt);
    ASSERT_TRUE(parts.ok()) << parts.status();
    size_t max_size = 0;
    size_t min_size = static_cast<size_t>(-1);
    for (const Fragment& f : parts->fragments) {
      std::set<NodeId> members;
      for (NodeId center : f.centers) {
        const std::vector<NodeId> nd =
            NodesWithinRadius(s.graph, center, opt.d);
        members.insert(nd.begin(), nd.end());
      }
      const std::vector<NodeId> want(members.begin(), members.end());
      EXPECT_EQ(FragmentNodes(s.graph, f, opt.d), want) << "n=" << n;
      size_t induced = 0;
      for (NodeId v : want) {
        for (const AdjEntry& e : s.graph.out_edges(v)) {
          induced += members.count(e.other);
        }
      }
      EXPECT_EQ(induced, BuildInducedSubgraph(s.graph, want).graph.num_edges())
          << "n=" << n;
      max_size = std::max(max_size, want.size() + induced);
      min_size = std::min(min_size, want.size() + induced);
    }
    EXPECT_DOUBLE_EQ(FragmentSkew(s.graph, *parts, opt.d),
                     static_cast<double>(max_size - min_size) /
                         static_cast<double>(max_size))
        << "n=" << n;
  }
}

TEST_P(SeededProperty, SharedPlanStoreEquivalence) {
  // Plans are always shared: the coordinator plans each round's patterns
  // once and every worker matcher reads the same store. On a multi-worker
  // run the store must actually serve the worker probes (all of them are
  // anchored at x), and the result must still equal the sequential
  // reference.
  Scenario s = MakeScenario(GetParam());
  DmineOptions opt = BatteryOptions();
  opt.num_workers = 4;
  auto shared = Dmine(s.graph, s.q, opt);
  ASSERT_TRUE(shared.ok()) << shared.status();
  EXPECT_GT(shared->stats.plans_shared_hits, 0u);
  EXPECT_EQ(shared->stats.plans_shared_hits, shared->stats.exists_calls);
  EXPECT_GT(shared->stats.plans_prepared, 0u);
  const test::OracleSeed seq = test::SequentialSeed(s.graph, s.q, opt);
  EXPECT_EQ(TopKFingerprint(shared->topk, shared->objective),
            TopKFingerprint(seq.topk, seq.objective))
      << "plan-store run diverged at seed " << GetParam();
}

std::string SnapshotV2(const std::vector<RuleRecord>& rules,
                       const RuleSetEvidence& evidence,
                       const Interner& labels) {
  std::ostringstream os;
  EXPECT_TRUE(WriteRuleSetSnapshotV2(rules, evidence, labels, os).ok());
  return os.str();
}

/// `RuleMaintainer::Seed` is one BSP Dmine run with its evidence captured.
/// At every worker count it must equal the sequential oracle: the v2 rule
/// snapshot (top-k records + evidence) byte for byte, the objective, and
/// the seed pass's counters.
void ExpectSeedMatchesOracle(const std::shared_ptr<const Graph>& g,
                             const Predicate& q, const DmineOptions& opt,
                             const test::OracleSeed& want) {
  const std::string want_bytes =
      SnapshotV2(want.TopKRecords(), want.evidence, g->labels());
  for (uint32_t n : {1u, 4u, 8u}) {
    MaintainOptions mo;
    mo.mine = opt;
    mo.mine.num_workers = n;
    auto m = RuleMaintainer::Seed(g, q, mo);
    ASSERT_TRUE(m.ok()) << m.status();
    const RuleMaintainer& got = **m;
    EXPECT_EQ(SnapshotV2(got.TopKRecords(), got.evidence(), g->labels()),
              want_bytes)
        << "n=" << n;
    EXPECT_EQ(got.objective(), want.objective) << "n=" << n;
    const MaintainStats& a = got.lifetime_stats();
    const MaintainStats& b = want.stats;
    EXPECT_EQ(a.passes, 1u) << "n=" << n;
    EXPECT_EQ(a.centers_reprobed, b.centers_reprobed) << "n=" << n;
    EXPECT_EQ(a.centers_carried, 0u) << "n=" << n;
    EXPECT_EQ(a.exists_calls, b.exists_calls) << "n=" << n;
    EXPECT_EQ(a.candidates_evaluated, b.candidates_evaluated) << "n=" << n;
    EXPECT_EQ(a.rules_accepted, b.rules_accepted) << "n=" << n;
    EXPECT_EQ(a.rules_reexpanded, b.rules_reexpanded) << "n=" << n;
    EXPECT_EQ(a.evidence_bytes_full, b.evidence_bytes_full) << "n=" << n;
    EXPECT_EQ(a.evidence_bytes_delta, b.evidence_bytes_delta) << "n=" << n;
  }
}

class MaintainSeedEquivalence : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, MaintainSeedEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// DMineno's inputs drop reduction-rule pruning, so the run grows another
// set of parents: another shape of the evidence's parent links.
TEST_P(MaintainSeedEquivalence, BspSeedMatchesSequentialOracle) {
  Scenario s = MakeScenario(GetParam());
  const auto g = std::make_shared<const Graph>(std::move(s.graph));
  for (const DmineOptions& opt :
       {BatteryOptions(), DmineNoOptions(BatteryOptions())}) {
    SCOPED_TRACE(opt.enable_reduction_rules ? "DMine" : "DMineno");
    const test::OracleSeed want = test::SequentialSeed(*g, s.q, opt);
    ASSERT_FALSE(want.evidence.entries.empty());
    ASSERT_FALSE(want.topk.empty());
    ExpectSeedMatchesOracle(g, s.q, opt, want);
  }
}

/// Six persons at two places; `buyers` of them buy an item, `gifted` of
/// the rest buy only a gift. Predicate person -buys-> item.
std::shared_ptr<const Graph> PoolGraph(int buyers, int gifted, Predicate* q) {
  GraphBuilder b;
  std::vector<NodeId> p;
  for (int i = 0; i < 6; ++i) p.push_back(b.AddNode("person"));
  const NodeId item = b.AddNode("item");
  const NodeId gift = b.AddNode("gift");
  const NodeId l0 = b.AddNode("place");
  const NodeId l1 = b.AddNode("place");
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(b.AddEdge(p[i], "at", i % 2 == 0 ? l0 : l1).ok());
    EXPECT_TRUE(b.AddEdge(p[i], "knows", p[(i + 1) % 6]).ok());
    if (i < buyers) {
      EXPECT_TRUE(b.AddEdge(p[i], "buys", item).ok());
    } else if (i < buyers + gifted) {
      EXPECT_TRUE(b.AddEdge(p[i], "buys", gift).ok());
    }
  }
  const Interner& labels = *b.labels_ptr();
  *q = {labels.Lookup("person"), labels.Lookup("buys"), labels.Lookup("item")};
  return std::make_shared<const Graph>(std::move(b).Build());
}

// With an empty q or ~q pool the run stops before round 1: the evidence
// holds the pools only, on both sides.
TEST(MaintainSeedEquivalenceTest, EmptyQPoolHoldsPoolsOnly) {
  Predicate q;
  const auto g = PoolGraph(/*buyers=*/0, /*gifted=*/2, &q);
  const DmineOptions opt = BatteryOptions();
  const test::OracleSeed want = test::SequentialSeed(*g, q, opt);
  EXPECT_TRUE(want.evidence.q_pool.empty());
  EXPECT_EQ(want.evidence.qbar_pool.size(), 2u);
  EXPECT_TRUE(want.evidence.entries.empty());
  ExpectSeedMatchesOracle(g, q, opt, want);
}

TEST(MaintainSeedEquivalenceTest, EmptyQbarPoolHoldsPoolsOnly) {
  Predicate q;
  const auto g = PoolGraph(/*buyers=*/4, /*gifted=*/0, &q);
  const DmineOptions opt = BatteryOptions();
  const test::OracleSeed want = test::SequentialSeed(*g, q, opt);
  EXPECT_EQ(want.evidence.q_pool.size(), 4u);
  EXPECT_TRUE(want.evidence.qbar_pool.empty());
  EXPECT_TRUE(want.evidence.entries.empty());
  ExpectSeedMatchesOracle(g, q, opt, want);
}

class WorkerCountProperty : public ::testing::TestWithParam<uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Workers, WorkerCountProperty,
                         ::testing::Values(1, 2, 3, 5));

TEST_P(WorkerCountProperty, DmineAcceptedPoolInvariant) {
  // The number of accepted rules (and objective) must not depend on n:
  // compare every n against the single-worker run.
  Graph g = MakeSynthetic(400, 1200, 20, 9);
  auto freq = FrequentEdgePatterns(g, 1);
  Predicate q{freq[0].src_label, freq[0].edge_label, freq[0].dst_label};
  DmineOptions opt;
  opt.k = 4;
  opt.d = 2;
  opt.sigma = 2;
  opt.max_pattern_edges = 3;
  opt.seed_edge_limit = 6;
  opt.enable_reduction_rules = false;

  opt.num_workers = 1;
  auto reference = Dmine(g, q, opt);
  ASSERT_TRUE(reference.ok());

  opt.num_workers = GetParam();
  auto result = Dmine(g, q, opt);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.accepted, reference->stats.accepted);
  EXPECT_NEAR(result->objective, reference->objective, 1e-9);
}

TEST(WorkerGenDeterminism, ResultsInvariantToWorkersSchedulingAndPath) {
  // Full determinism, top-k order included: DMine's result must not depend
  // on the worker count or on thread scheduling (repeat runs race workers
  // differently). Run under the sanitizers, the repeat-run check doubles as
  // a data-race stability probe on the proposal gather.
  Graph g = MakeSynthetic(600, 1800, 25, 11);
  auto freq = FrequentEdgePatterns(g, 1);
  Predicate q{freq[0].src_label, freq[0].edge_label, freq[0].dst_label};
  DmineOptions opt;
  opt.k = 4;
  opt.d = 2;
  opt.sigma = 2;
  opt.max_pattern_edges = 3;
  opt.seed_edge_limit = 6;

  std::string reference;
  for (uint32_t n : {1u, 2u, 4u, 8u}) {
    opt.num_workers = n;
    auto result = Dmine(g, q, opt);
    ASSERT_TRUE(result.ok()) << result.status();
    std::string fp = ResultFingerprint(*result);
    if (reference.empty()) {
      reference = fp;
      EXPECT_FALSE(result->topk.empty());
    } else {
      EXPECT_EQ(fp, reference) << "divergence at n=" << n;
    }
  }
  // Repeat-run stability at the widest fan-out: same fingerprint when the
  // same configuration races its workers a second and third time.
  opt.num_workers = 8;
  for (int rep = 0; rep < 2; ++rep) {
    auto result = Dmine(g, q, opt);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(ResultFingerprint(*result), reference) << "repeat-run divergence";
  }
}

}  // namespace
}  // namespace gpar
