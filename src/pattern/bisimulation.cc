#include "pattern/bisimulation.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

namespace gpar {

namespace {

/// Partition refinement over the disjoint union of two patterns (the second
/// may be empty). Signature of a node = (label, sorted set of
/// (edge label, color of out-neighbor)). Refines until stable.
///
/// Bisimulation per the paper is forward-only (out-edges), so in-edges do
/// not contribute to the signature.
std::vector<uint32_t> RefineUnion(const Pattern& a, const Pattern* b) {
  const uint32_t na = a.num_nodes();
  const uint32_t nb = (b != nullptr) ? b->num_nodes() : 0;
  const uint32_t n = na + nb;

  auto label_of = [&](uint32_t u) {
    return u < na ? a.node(u).label : b->node(u - na).label;
  };
  auto out_edges_of = [&](uint32_t u) {
    std::vector<std::pair<LabelId, uint32_t>> out;
    if (u < na) {
      for (const PatternAdj& e : a.adj(u)) {
        if (e.out) out.emplace_back(e.elabel, e.other);
      }
    } else {
      for (const PatternAdj& e : b->adj(u - na)) {
        if (e.out) out.emplace_back(e.elabel, e.other + na);
      }
    }
    return out;
  };

  // Initial colors by node label.
  std::vector<uint32_t> color(n);
  {
    std::map<LabelId, uint32_t> first;
    uint32_t next = 0;
    for (uint32_t u = 0; u < n; ++u) {
      auto [it, inserted] = first.emplace(label_of(u), next);
      if (inserted) ++next;
      color[u] = it->second;
    }
  }

  // Refine: signature = (color, set of (elabel, target color)).
  for (;;) {
    using Sig = std::pair<uint32_t, std::set<std::pair<LabelId, uint32_t>>>;
    std::map<Sig, uint32_t> sig_color;
    std::vector<uint32_t> next_color(n);
    uint32_t next = 0;
    for (uint32_t u = 0; u < n; ++u) {
      Sig sig;
      sig.first = color[u];
      for (const auto& [el, v] : out_edges_of(u)) {
        sig.second.emplace(el, color[v]);
      }
      auto [it, inserted] = sig_color.emplace(std::move(sig), next);
      if (inserted) ++next;
      next_color[u] = it->second;
    }
    if (next_color == color) break;
    color = std::move(next_color);
  }
  return color;
}

}  // namespace

std::vector<uint32_t> BisimulationColors(const Pattern& p) {
  return RefineUnion(p, nullptr);
}

bool AreBisimilarDesignated(const Pattern& a, const Pattern& b) {
  if (a.has_y() != b.has_y()) return false;
  const uint32_t na = a.num_nodes();
  const uint32_t nb = b.num_nodes();
  std::vector<uint32_t> color = RefineUnion(a, &b);
  // Every equivalence class touched by one pattern must be inhabited by the
  // other, in both directions.
  std::set<uint32_t> in_a, in_b;
  for (uint32_t u = 0; u < na; ++u) in_a.insert(color[u]);
  for (uint32_t u = 0; u < nb; ++u) in_b.insert(color[na + u]);
  if (in_a != in_b) return false;
  if (color[a.x()] != color[na + b.x()]) return false;
  if (a.has_y() && color[a.y()] != color[na + b.y()]) return false;
  return true;
}

}  // namespace gpar
