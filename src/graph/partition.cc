#include "graph/partition.h"

#include <algorithm>
#include <numeric>
#include <queue>

namespace gpar {

size_t Fragment::MemoryBytes() const {
  return centers.capacity() * sizeof(NodeId) +
         center_hops_available.capacity() * sizeof(uint32_t) +
         view.MemoryBytes();
}

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

  Partitioning out;
  out.d = options.d;

  // --- Single BFS sweep over all centers with shared flat scratch. --------
  // One (center, distance)-tagging pass: every center's d-neighborhood is
  // swept through a single reused frontier pair with a flat stamp array as
  // the visited set — O(1) dedup per edge scan, no per-BFS hash maps, no
  // per-node tag lists (which go quadratic on scale-free hubs that sit
  // within d of thousands of centers). The sweep emits the |N_d| weights,
  // the arena-packed membership lists, and the extendability signal in one
  // near-linear pass over the replicated edge set.
  std::vector<uint32_t> stamp(g.num_nodes(), kInvalidNode);
  std::vector<NodeId> curr, next;
  std::vector<size_t> neigh_size(nc, 0);
  // N_d(center) node sets, CSR-packed into one arena (4 bytes per
  // replicated node — the transient peak of the build).
  std::vector<size_t> neigh_offsets(nc + 1, 0);
  std::vector<NodeId> neigh_arena;
  std::vector<uint32_t> hops_avail(nc, 0);
  for (uint32_t c = 0; c < static_cast<uint32_t>(nc); ++c) {
    neigh_offsets[c] = neigh_arena.size();
    const NodeId src = centers[c];
    stamp[src] = c;  // ordinals are unique, so stamps never need clearing
    neigh_arena.push_back(src);
    curr.assign(1, src);
    for (uint32_t level = 0; level < options.d && !curr.empty(); ++level) {
      next.clear();
      for (NodeId u : curr) {
        auto visit = [&](NodeId w) {
          if (stamp[w] == c) return;
          stamp[w] = c;
          neigh_arena.push_back(w);
          next.push_back(w);
        };
        for (const AdjEntry& e : g.out_edges(u)) visit(e.other);
        for (const AdjEntry& e : g.in_edges(u)) visit(e.other);
      }
      curr.swap(next);
    }
    neigh_size[c] = neigh_arena.size() - neigh_offsets[c];
    // `curr` now holds exactly the hop-d arrivals. The real "extendable
    // past d" signal: hops are available iff some node at distance exactly
    // d has an incident edge leaving N_d — i.e. to an unstamped neighbor.
    // (The previous implementation recorded the max observed BFS depth,
    // which is nonzero for any center with a neighbor — even when N_d is
    // the entire reachable component and no further hop exists.)
    for (NodeId u : curr) {
      bool escapes = false;
      for (const AdjEntry& e : g.out_edges(u)) {
        if (stamp[e.other] != c) {
          escapes = true;
          break;
        }
      }
      if (!escapes) {
        for (const AdjEntry& e : g.in_edges(u)) {
          if (stamp[e.other] != c) {
            escapes = true;
            break;
          }
        }
      }
      if (escapes) {
        hops_avail[c] = 1;
        break;
      }
    }
  }
  neigh_offsets[nc] = neigh_arena.size();

  Assignment assign = AssignLpt(neigh_size, n);
  out.owner_of_center = assign.owner_of_center;

  // --- Membership: concatenate each fragment's owned N_d lists from the
  // arena, deduplicating with a per-node last-fragment stamp (fragments
  // are processed in order, so one array replaces any set union), then a
  // single sort per fragment yields the ascending member list.
  std::vector<std::vector<NodeId>> members(n);
  {
    std::vector<uint32_t> last_frag(g.num_nodes(), kInvalidNode);
    for (uint32_t f = 0; f < n; ++f) {
      for (size_t idx : assign.per_fragment[f]) {
        for (size_t k = neigh_offsets[idx]; k < neigh_offsets[idx + 1]; ++k) {
          const NodeId v = neigh_arena[k];
          if (last_frag[v] != f) {
            last_frag[v] = f;
            members[f].push_back(v);
          }
        }
      }
      std::sort(members[f].begin(), members[f].end());
    }
  }

  // --- Materialize fragments as zero-copy views (O(id-list) memory, no
  // CSR rebuild). Centers are global ids.
  out.fragments.resize(n);
  for (uint32_t f = 0; f < n; ++f) {
    Fragment& frag = out.fragments[f];
    frag.view = GraphView(g, std::move(members[f]));
    frag.centers.reserve(assign.per_fragment[f].size());
    frag.center_hops_available.reserve(assign.per_fragment[f].size());
    for (size_t idx : assign.per_fragment[f]) {
      frag.centers.push_back(centers[idx]);
      frag.center_hops_available.push_back(hops_avail[idx]);
    }
  }
  return out;
}

double FragmentSkew(const Partitioning& p) {
  if (p.fragments.empty()) return 0;
  size_t max_size = 0;
  size_t min_size = static_cast<size_t>(-1);
  for (const Fragment& f : p.fragments) {
    size_t s = f.view.size();  // |V_f| + |E_f|, the paper's size measure
    max_size = std::max(max_size, s);
    min_size = std::min(min_size, s);
  }
  if (max_size == 0) return 0;
  return static_cast<double>(max_size - min_size) /
         static_cast<double>(max_size);
}

size_t PartitionMemoryBytes(const Partitioning& p) {
  size_t total = 0;
  for (const Fragment& f : p.fragments) total += f.MemoryBytes();
  return total;
}

}  // namespace gpar
