#include "graph/partition.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <thread>

#include "graph/neighborhood.h"
#include "parallel/thread_pool.h"

namespace gpar {

namespace {

/// Greedy balanced assignment: heaviest centers first, least-loaded
/// fragment next (longest-processing-time heuristic). Deterministic: ties
/// in weight keep input order (stable sort), ties in load pick the lowest
/// fragment index.
struct Assignment {
  std::vector<std::vector<size_t>> per_fragment;  // center indices
  std::vector<uint32_t> owner_of_center;
};

Assignment AssignLpt(const std::vector<size_t>& weights, uint32_t n) {
  Assignment out;
  out.per_fragment.resize(n);
  out.owner_of_center.assign(weights.size(), 0);

  std::vector<size_t> order(weights.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return weights[a] > weights[b];
  });

  struct Load {
    size_t load;
    uint32_t frag;
    bool operator>(const Load& o) const {
      if (load != o.load) return load > o.load;
      return frag > o.frag;
    }
  };
  std::priority_queue<Load, std::vector<Load>, std::greater<Load>> heap;
  for (uint32_t f = 0; f < n; ++f) heap.push({0, f});

  for (size_t idx : order) {
    Load best = heap.top();
    heap.pop();
    out.per_fragment[best.frag].push_back(idx);
    best.load += weights[idx];
    heap.push(best);
    out.owner_of_center[idx] = best.frag;
  }
  return out;
}

}  // namespace

Result<Partitioning> PartitionGraph(const Graph& g,
                                    const std::vector<NodeId>& centers,
                                    const PartitionOptions& options) {
  if (options.num_fragments == 0) {
    return Status::InvalidArgument("num_fragments must be positive");
  }
  const uint32_t n = options.num_fragments;
  const size_t nc = centers.size();

  // --- Exact |N_d| weights: one contiguous range of centers per thread. --
  // Each range sweeps its centers' d-neighborhoods through its own frontier
  // pair with its own flat stamp array as the visited set — O(1) dedup per
  // edge scan, no per-BFS hash maps — and writes only its own slice of
  // `neigh_size`. Nothing mutable is shared, so the weights equal a serial
  // sweep's whatever the thread count.
  std::vector<size_t> neigh_size(nc, 0);
  const uint32_t threads = std::max<uint32_t>(
      1, std::min<uint32_t>(n, std::thread::hardware_concurrency()));
  ThreadPool pool(threads);
  ParallelFor(pool, threads, [&](uint32_t t) {
    const size_t begin = nc * t / threads;
    const size_t end = nc * (t + 1) / threads;
    if (begin == end) return;
    std::vector<uint32_t> stamp(g.num_nodes(), kInvalidNode);
    std::vector<NodeId> curr, next;
    for (size_t c = begin; c < end; ++c) {
      // Center ordinals are unique, so stamps never need clearing.
      const uint32_t mark = static_cast<uint32_t>(c);
      const NodeId src = centers[c];
      stamp[src] = mark;
      size_t size = 1;
      curr.assign(1, src);
      for (uint32_t level = 0; level < options.d && !curr.empty(); ++level) {
        // The last level's nodes are counted but never expanded.
        const bool expand = level + 1 < options.d;
        next.clear();
        for (NodeId u : curr) {
          auto visit = [&](NodeId w) {
            if (stamp[w] == mark) return;
            stamp[w] = mark;
            ++size;
            if (expand) next.push_back(w);
          };
          for (const AdjEntry& e : g.out_edges(u)) visit(e.other);
          for (const AdjEntry& e : g.in_edges(u)) visit(e.other);
        }
        curr.swap(next);
      }
      neigh_size[c] = size;
    }
  });

  Assignment assign = AssignLpt(neigh_size, n);
  Partitioning out;
  out.owner_of_center = std::move(assign.owner_of_center);
  out.fragments.resize(n);
  for (uint32_t f = 0; f < n; ++f) {
    std::vector<NodeId>& owned = out.fragments[f].centers;
    owned.reserve(assign.per_fragment[f].size());
    for (size_t idx : assign.per_fragment[f]) owned.push_back(centers[idx]);
    std::sort(owned.begin(), owned.end());
  }
  return out;
}

std::vector<NodeId> FragmentNodes(const Graph& g, const Fragment& fragment,
                                  uint32_t d) {
  const auto reached = NodesWithinRadiusOfAny(g, fragment.centers, d);
  std::vector<NodeId> nodes;
  nodes.reserve(reached.size());
  for (const auto& [v, dist] : reached) nodes.push_back(v);
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

double FragmentSkew(const Graph& g, const Partitioning& p, uint32_t d) {
  if (p.fragments.empty()) return 0;
  size_t max_size = 0;
  size_t min_size = static_cast<size_t>(-1);
  // |E_f| counts the out-edges between two nodes of F_f; one stamp array
  // marks the current fragment's nodes, and fragment ordinals are unique,
  // so it never needs clearing.
  std::vector<uint32_t> stamp(g.num_nodes(), kInvalidNode);
  for (uint32_t f = 0; f < p.fragments.size(); ++f) {
    const std::vector<NodeId> nodes = FragmentNodes(g, p.fragments[f], d);
    for (NodeId v : nodes) stamp[v] = f;
    size_t s = nodes.size();  // |V_f| + |E_f|, the paper's size measure
    for (NodeId v : nodes) {
      for (const AdjEntry& e : g.out_edges(v)) {
        if (stamp[e.other] == f) ++s;
      }
    }
    max_size = std::max(max_size, s);
    min_size = std::min(min_size, s);
  }
  if (max_size == 0) return 0;
  return static_cast<double>(max_size - min_size) /
         static_cast<double>(max_size);
}

}  // namespace gpar
