// The maintainer's lattice memo on its miss paths: a batch that shifts the
// seed alphabet, one that moves a round-1 rule across sigma (so round 2's
// parents change), and a maintainer restored from evidence. After every
// batch the maintained top-k, objective and evidence must equal a fresh
// seed's on the same graph, and the memo counters must show both replayed
// and regenerated rounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "graph/generator.h"
#include "graph/graph_delta.h"
#include "graph/stats.h"
#include "maintain/rule_maintainer.h"

namespace gpar {
namespace {

MaintainOptions Options() {
  MaintainOptions opt;
  opt.mine.num_workers = 2;
  opt.mine.k = 3;
  opt.mine.d = 2;
  opt.mine.sigma = 2;
  opt.mine.lambda = 0.5;
  opt.mine.max_pattern_edges = 3;
  opt.mine.seed_edge_limit = 8;
  opt.mine.max_candidates_per_round = 200;
  return opt;
}

Predicate PickQ(const Graph& g) {
  const std::vector<EdgePatternStat> freq = FrequentEdgePatterns(g);
  EXPECT_FALSE(freq.empty());
  return {freq[0].src_label, freq[0].edge_label, freq[0].dst_label};
}

/// The memo counters summed over a run of passes.
struct MemoTally {
  size_t replayed = 0;
  size_t regenerated = 0;
  uint64_t unchanged = 0;
  size_t bitsets = 0;

  void Add(const MaintainStats& ps) {
    replayed += ps.rounds_replayed;
    regenerated += ps.rounds_regenerated;
    unchanged += ps.sets_unchanged;
    bitsets += ps.bitsets_reused;
  }
};

/// Applies `d` and holds the maintainer to a fresh seed on the new graph.
MaintainStats ApplyAndCompare(RuleMaintainer& m, const GraphDelta& d,
                              const std::string& what) {
  auto ps = m.ApplyDelta(d);
  EXPECT_TRUE(ps.ok()) << what << ": " << ps.status();
  if (!ps.ok()) return {};
  auto fresh = RuleMaintainer::Seed(m.graph(), m.predicate(), m.options());
  EXPECT_TRUE(fresh.ok()) << what << ": " << fresh.status();
  if (!fresh.ok()) return *ps;
  EXPECT_EQ(m.TopKRecords(), (*fresh)->TopKRecords()) << what;
  EXPECT_EQ(m.objective(), (*fresh)->objective()) << what;
  EXPECT_EQ(m.evidence(), (*fresh)->evidence()) << what;
  return *ps;
}

/// A batch that touches no pattern's pools much: `k` random inserts and
/// deletes of edges whose labels the graph already uses.
GraphDelta RandomChurn(const Graph& g, uint64_t seed, size_t k) {
  std::mt19937_64 rng(seed);
  GraphDelta d;
  for (size_t i = 0; i < k; ++i) {
    NodeId v = static_cast<NodeId>(rng() % g.num_nodes());
    while (g.out_edges(v).empty()) v = (v + 1) % g.num_nodes();
    const auto edges = g.out_edges(v);
    const AdjEntry& e = edges[rng() % edges.size()];
    d.deletes.push_back({v, e.label, e.other});
    NodeId u = static_cast<NodeId>(rng() % g.num_nodes());
    while (g.out_edges(u).empty()) u = (u + 1) % g.num_nodes();
    d.inserts.push_back({u, g.out_edges(u)[0].label,
                         static_cast<NodeId>(rng() % g.num_nodes())});
  }
  return d;
}

bool InAlphabet(const Graph& g, size_t limit, const EdgePatternStat& t) {
  for (const EdgePatternStat& s : FrequentEdgePatterns(g, limit)) {
    if (s.src_label == t.src_label && s.edge_label == t.edge_label &&
        s.dst_label == t.dst_label) {
      return true;
    }
  }
  return false;
}

// A batch of edges of the triple ranked just below the seed-edge limit
// pushes it into the alphabet; deleting them again pushes it back out.
// Both passes regenerate from round 1; plain batches around them replay.
TEST(MaintainLatticeMemoTest, AlphabetShiftInAndOutRegenerates) {
  MemoTally tally;
  size_t shifts = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    auto g = std::make_shared<const Graph>(
        MakeSynthetic(300, 900, 10, seed * 17));
    const Predicate q = PickQ(*g);
    const MaintainOptions opt = Options();
    const size_t limit = opt.mine.seed_edge_limit;
    auto m = RuleMaintainer::Seed(g, q, opt);
    ASSERT_TRUE(m.ok()) << m.status();
    const std::string tag = "seed " + std::to_string(seed);

    tally.Add(ApplyAndCompare(**m, RandomChurn(*g, seed, 4), tag + " warm"));
    tally.Add(
        ApplyAndCompare(**m, RandomChurn(*(*m)->graph(), seed + 50, 4),
                        tag + " plain"));

    // Push `rare`, the first triple past the alphabet, in: enough new
    // edges of its triple to beat the last alphabet member's count.
    const std::shared_ptr<const Graph> cur = (*m)->graph();
    const std::vector<EdgePatternStat> freq = FrequentEdgePatterns(*cur);
    ASSERT_GT(freq.size(), limit);
    const EdgePatternStat rare = freq[limit];
    const uint64_t need = freq[limit - 1].count - rare.count + 2;
    GraphDelta in;
    std::mt19937_64 rng(seed);
    const auto srcs = cur->nodes_with_label(rare.src_label);
    const auto dsts = cur->nodes_with_label(rare.dst_label);
    for (size_t tries = 0; in.inserts.size() < need && tries < 100000;
         ++tries) {
      const EdgeInsert e{srcs[rng() % srcs.size()], rare.edge_label,
                         dsts[rng() % dsts.size()]};
      if (e.src == e.dst || cur->HasEdge(e.src, e.label, e.dst) ||
          std::find(in.inserts.begin(), in.inserts.end(), e) !=
              in.inserts.end()) {
        continue;
      }
      in.inserts.push_back(e);
    }
    ASSERT_EQ(in.inserts.size(), need) << tag;
    const MaintainStats ps_in = ApplyAndCompare(**m, in, tag + " push in");
    ASSERT_TRUE(InAlphabet(*(*m)->graph(), limit, rare)) << tag;
    EXPECT_EQ(ps_in.rounds_replayed, 0u) << tag;
    EXPECT_GT(ps_in.rounds_regenerated, 0u) << tag;
    tally.Add(ps_in);

    GraphDelta out;
    for (const EdgeInsert& e : in.inserts) {
      out.deletes.push_back({e.src, e.label, e.dst});
    }
    const MaintainStats ps_out = ApplyAndCompare(**m, out, tag + " push out");
    ASSERT_FALSE(InAlphabet(*(*m)->graph(), limit, rare)) << tag;
    EXPECT_EQ(ps_out.rounds_replayed, 0u) << tag;
    EXPECT_GT(ps_out.rounds_regenerated, 0u) << tag;
    tally.Add(ps_out);
    ++shifts;

    tally.Add(
        ApplyAndCompare(**m, RandomChurn(*(*m)->graph(), seed + 90, 4),
                        tag + " after"));
  }
  EXPECT_EQ(shifts, 4u);
  EXPECT_GT(tally.replayed, 0u);
  EXPECT_GT(tally.regenerated, 0u);
  EXPECT_GT(tally.unchanged, 0u);
  EXPECT_GT(tally.bitsets, 0u);
}

/// Deletes, at `count` of the entry's matched centers, every edge that
/// realizes the rule's one antecedent edge at x, so those centers stop
/// matching P_R. Returns an empty batch when the antecedent edge does not
/// touch x.
GraphDelta RetireMatches(const Graph& g, const EvidenceEntry& e,
                         size_t count) {
  GraphDelta d;
  const Pattern& ant = e.rule.antecedent();
  if (ant.num_edges() != 1) return d;
  const PatternEdge& pe = ant.edges()[0];
  const bool out = pe.src == ant.x();
  if (!out && pe.dst != ant.x()) return d;
  const LabelId other = ant.node(out ? pe.dst : pe.src).label;
  for (size_t i = 0; i < count && i < e.pr_matches.size(); ++i) {
    const NodeId c = e.pr_matches[i];
    const auto edges = out ? g.out_edges_labeled(c, pe.label)
                           : g.in_edges_labeled(c, pe.label);
    for (const AdjEntry& a : edges) {
      if (g.node_label(a.other) != other) continue;
      d.deletes.push_back(out ? EdgeDelete{c, pe.label, a.other}
                              : EdgeDelete{a.other, pe.label, c});
    }
  }
  return d;
}

// A round-1 rule with children drops below sigma, so round 2 runs on other
// parents: round 1 replays and round 2 is generated anew. Re-inserting the
// deleted edges brings the rule back across sigma.
TEST(MaintainLatticeMemoTest, SigmaCrossingRegeneratesLaterRounds) {
  MemoTally tally;
  size_t crossings = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto g =
        std::make_shared<const Graph>(MakeSynthetic(300, 900, 10, seed * 7));
    const Predicate q = PickQ(*g);
    const MaintainOptions opt = Options();
    auto m = RuleMaintainer::Seed(g, q, opt);
    ASSERT_TRUE(m.ok()) << m.status();
    const std::string tag = "seed " + std::to_string(seed);
    tally.Add(ApplyAndCompare(**m, RandomChurn(*g, seed, 3), tag + " warm"));

    // A root entry at or above sigma that has children, with the fewest
    // matches: the cheapest to push below sigma.
    const RuleSetEvidence& ev = (*m)->evidence();
    const EvidenceEntry* pick = nullptr;
    for (uint32_t i = 0; i < ev.entries.size(); ++i) {
      const EvidenceEntry& e = ev.entries[i];
      if (e.parent != kEvidenceRoot || e.pr_matches.size() < opt.mine.sigma) {
        continue;
      }
      const bool has_child =
          std::any_of(ev.entries.begin(), ev.entries.end(),
                      [&](const EvidenceEntry& c) { return c.parent == i; });
      if (!has_child ||
          RetireMatches(*(*m)->graph(), e, 1).deletes.empty()) {
        continue;
      }
      if (pick == nullptr || e.pr_matches.size() < pick->pr_matches.size()) {
        pick = &e;
      }
    }
    if (pick == nullptr) continue;
    const size_t retire = pick->pr_matches.size() - opt.mine.sigma + 1;
    const GraphDelta down = RetireMatches(*(*m)->graph(), *pick, retire);
    const MaintainStats ps_down = ApplyAndCompare(**m, down, tag + " down");
    tally.Add(ps_down);
    EXPECT_GT(ps_down.sigma_crossed_down, 0u) << tag;

    GraphDelta up;
    for (const EdgeDelete& e : down.deletes) {
      up.inserts.push_back({e.src, e.label, e.dst});
    }
    const MaintainStats ps_up = ApplyAndCompare(**m, up, tag + " up");
    tally.Add(ps_up);
    if (ps_down.rounds_replayed > 0 && ps_down.rounds_regenerated > 0 &&
        ps_up.rounds_replayed > 0 && ps_up.rounds_regenerated > 0) {
      ++crossings;
    }
  }
  // At least one stream replayed round 1 and regenerated round 2 on both
  // crossings (a pass whose deletes also shift the alphabet regenerates
  // from round 1 instead).
  EXPECT_GT(crossings, 0u);
  EXPECT_GT(tally.replayed, 0u);
  EXPECT_GT(tally.regenerated, 0u);
}

// A maintainer restored from evidence starts with an empty memo: its
// zero-delta pass generates every round, and later batches replay.
TEST(MaintainLatticeMemoTest, FromEvidenceThenBatches) {
  MemoTally tally;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    auto g = std::make_shared<const Graph>(
        MakeSynthetic(300, 900, 10, seed * 29));
    const Predicate q = PickQ(*g);
    auto seeded = RuleMaintainer::Seed(g, q, Options());
    ASSERT_TRUE(seeded.ok()) << seeded.status();
    auto m = RuleMaintainer::FromEvidence(g, (*seeded)->evidence(), Options());
    ASSERT_TRUE(m.ok()) << m.status();
    const MaintainStats& restore = (*m)->lifetime_stats();
    EXPECT_EQ(restore.rounds_replayed, 0u);
    EXPECT_GT(restore.rounds_regenerated, 0u);
    tally.Add(restore);
    for (uint64_t b = 0; b < 4; ++b) {
      const std::string what =
          "seed " + std::to_string(seed) + " batch " + std::to_string(b);
      GraphDelta d = RandomChurn(*(*m)->graph(), seed * 10 + b, 3);
      d.sequence = b + 1;
      tally.Add(ApplyAndCompare(**m, d, what));
    }
  }
  EXPECT_GT(tally.replayed, 0u);
  EXPECT_GT(tally.regenerated, 0u);
}

}  // namespace
}  // namespace gpar
