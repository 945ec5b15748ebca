// Micro-benchmarks (google-benchmark) for the matching layer: VF2 probes,
// enumeration, bound pool probes and multi-pattern sharing, plus incDiv's
// pair scan over match bitsets. Not a paper figure — engineering-level
// visibility into the EIP and diversification cost models.

#include <benchmark/benchmark.h>

#include <memory>
#include <random>
#include <vector>

#include "bench_common.h"
#include "match/matcher.h"
#include "match/multi_pattern.h"
#include "mine/inc_div.h"

namespace {

using namespace gpar;
using namespace gpar::bench;

struct Fixture {
  Graph graph = MakePokecLike(1);
  Predicate q = PickPredicate(graph, "like_music");
  std::vector<Gpar> sigma = MakeSigma(graph, q, 8, 5, 8, 2);
};

Fixture& GetFixture() {
  static Fixture* f = new Fixture();
  return *f;
}

void BM_VF2ExistsAt(benchmark::State& state) {
  Fixture& f = GetFixture();
  VF2Matcher m(f.graph);
  auto centers = f.graph.nodes_with_label(f.q.x_label);
  size_t i = 0;
  for (auto _ : state) {
    const Gpar& r = f.sigma[i % f.sigma.size()];
    NodeId v = centers[(i * 7919) % centers.size()];
    benchmark::DoNotOptimize(m.ExistsAt(r.pr(), v));
    ++i;
  }
}
BENCHMARK(BM_VF2ExistsAt);

void BM_VF2EnumerateAll(benchmark::State& state) {
  Fixture& f = GetFixture();
  VF2Matcher m(f.graph);
  auto centers = f.graph.nodes_with_label(f.q.x_label);
  size_t i = 0;
  for (auto _ : state) {
    const Gpar& r = f.sigma[i % f.sigma.size()];
    NodeId v = centers[(i * 7919) % centers.size()];
    Anchor a{r.pr().x(), v};
    benchmark::DoNotOptimize(m.Enumerate(
        r.pr(), {&a, 1}, [](std::span<const NodeId>) { return true; },
        10000));
    ++i;
  }
}
BENCHMARK(BM_VF2EnumerateAll);

// The DMine worker's pool loop on a miss-heavy pattern: one P_R probed at
// every center of the x-label pool, where most centers fail. Of the
// fixture's patterns that match at least 1% of the pool, the one that
// matches the fewest centers (a choice by answers, so every plan order
// probes the same pattern). Arg 0 probes with ExistsAt, resolving the
// pattern per call; arg 1 binds it once and probes with ProbeAt. One
// iteration is one pass over the pool.
void BM_VF2MissHeavyPool(benchmark::State& state) {
  Fixture& f = GetFixture();
  VF2Matcher m(f.graph);
  auto centers = f.graph.nodes_with_label(f.q.x_label);
  const Pattern* pick = nullptr;
  size_t pick_hits = 0;
  for (const Gpar& r : f.sigma) {
    size_t hits = 0;
    for (NodeId v : centers) hits += m.ExistsAt(r.pr(), v) ? 1 : 0;
    if (100 * hits >= centers.size() && (pick == nullptr || hits < pick_hits)) {
      pick = &r.pr();
      pick_hits = hits;
    }
  }
  if (pick == nullptr) {
    state.SkipWithError("no fixture pattern matches 1% of the pool");
    return;
  }
  const bool bound = state.range(0) == 1;
  for (auto _ : state) {
    size_t hits = 0;
    if (bound) {
      m.Bind(*pick);
      for (NodeId v : centers) hits += m.ProbeAt(v) ? 1 : 0;
    } else {
      for (NodeId v : centers) hits += m.ExistsAt(*pick, v) ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(centers.size()));
  state.counters["miss_ratio"] =
      1.0 -
      static_cast<double>(pick_hits) / static_cast<double>(centers.size());
}
BENCHMARK(BM_VF2MissHeavyPool)->Arg(0)->Arg(1);

void BM_MultiPatternSharedEval(benchmark::State& state) {
  Fixture& f = GetFixture();
  VF2Matcher m(f.graph);
  std::vector<const Pattern*> pats;
  for (const Gpar& r : f.sigma) pats.push_back(&r.pr());
  MultiPatternEvaluator eval(pats);
  auto centers = f.graph.nodes_with_label(f.q.x_label);
  std::vector<char> out;
  size_t i = 0;
  for (auto _ : state) {
    eval.EvaluateAt(m, centers[(i * 7919) % centers.size()], &out);
    benchmark::DoNotOptimize(out.data());
    ++i;
  }
}
BENCHMARK(BM_MultiPatternSharedEval);

void BM_MultiPatternNaiveEval(benchmark::State& state) {
  Fixture& f = GetFixture();
  VF2Matcher m(f.graph);
  auto centers = f.graph.nodes_with_label(f.q.x_label);
  size_t i = 0;
  for (auto _ : state) {
    NodeId v = centers[(i * 7919) % centers.size()];
    for (const Gpar& r : f.sigma) {
      benchmark::DoNotOptimize(m.ExistsAt(r.pr(), v));
    }
    ++i;
  }
}
BENCHMARK(BM_MultiPatternNaiveEval);

/// Two incDiv rounds shaped like one churn maintenance pass: 22 rules offered
/// as ΔE = Σ, then 257 more (|Σ| = 279), over a q pool of 830 centers, so
/// each match bitset spans up to 13 words. Round-2 match sets are subsets
/// of a round-1 set, as children's are of their parents'. Arg 0 draws
/// round-1 sets from id bands, so some pairs are disjoint (diff = 1) and
/// the queue's F' floor prunes most pair scores; arg 1 gives every set a
/// shared core, so no pair is disjoint and every pair is scored. Each
/// iteration builds a fresh IncDiv, so bitset encoding is included.
void BM_IncDivAddRound(benchmark::State& state) {
  constexpr size_t kPool = 830;
  const bool shared_core = state.range(0) != 0;
  std::mt19937_64 rng(2015);
  std::uniform_real_distribution<double> unit(0, 1);
  auto make = [&](std::vector<NodeId> matches) {
    auto r = std::make_shared<MinedRule>();
    r->matches = std::move(matches);
    r->conf = 0.5 + 30 * unit(rng);
    return r;
  };
  std::vector<std::shared_ptr<MinedRule>> round1, round2;
  for (size_t i = 0; i < 22; ++i) {
    const size_t lo = shared_core ? 0 : rng() % kPool;
    const size_t hi = shared_core ? kPool : lo + (kPool - lo) * unit(rng);
    const double keep = 0.2 + 0.7 * unit(rng);
    std::vector<NodeId> m;
    for (size_t v = 0; v < kPool; ++v) {
      if ((v >= lo && v < hi && unit(rng) < keep) || (shared_core && v < 8)) {
        m.push_back(static_cast<NodeId>(v * 37));
      }
    }
    round1.push_back(make(std::move(m)));
  }
  for (size_t i = 0; i < 257; ++i) {
    const std::vector<NodeId>& parent = round1[rng() % round1.size()]->matches;
    const double keep = 0.3 + 0.6 * unit(rng);
    std::vector<NodeId> m;
    for (size_t j = 0; j < parent.size(); ++j) {
      if (unit(rng) < keep || (shared_core && j < 8)) m.push_back(parent[j]);
    }
    round2.push_back(make(std::move(m)));
  }
  std::vector<std::shared_ptr<MinedRule>> sigma = round1;
  sigma.insert(sigma.end(), round2.begin(), round2.end());
  for (auto _ : state) {
    IncDiv inc(/*k=*/6, /*lambda=*/0.5, /*n_norm=*/kPool * 1200.0);
    inc.AddRound(round1, round1);
    inc.AddRound(round2, sigma);
    benchmark::DoNotOptimize(inc.MinPairFPrime());
  }
}
BENCHMARK(BM_IncDivAddRound)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
