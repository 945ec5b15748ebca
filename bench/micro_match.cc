// Micro-benchmarks (google-benchmark) for the matching layer: VF2 vs
// guided search and multi-pattern sharing. Not a
// paper figure — engineering-level visibility into the EIP cost model.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "match/guided.h"
#include "match/matcher.h"
#include "match/multi_pattern.h"

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

void BM_GuidedExistsAt(benchmark::State& state) {
  Fixture& f = GetFixture();
  GuidedMatcher m(f.graph, 2);
  auto centers = f.graph.nodes_with_label(f.q.x_label);
  size_t i = 0;
  for (auto _ : state) {
    const Gpar& r = f.sigma[i % f.sigma.size()];
    NodeId v = centers[(i * 7919) % centers.size()];
    benchmark::DoNotOptimize(m.ExistsAt(r.pr(), v));
    ++i;
  }
}
BENCHMARK(BM_GuidedExistsAt);

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

}  // namespace

BENCHMARK_MAIN();
