#include "match/matcher.h"

#include <algorithm>
#include <cassert>

#include "pattern/pattern_ops.h"

namespace gpar {

namespace {

// Mined pattern universes are bounded (a few thousand per run); a plan store
// is cleared wholesale if a workload ever exceeds this, trading a re-plan for
// a memory ceiling.
constexpr size_t kMaxCachedPatterns = 1 << 14;

/// Sorts and deduplicates an anchored-node set into its plan-cache key form.
void CanonicalizeAnchored(std::vector<PNodeId>* anchored) {
  std::sort(anchored->begin(), anchored->end());
  anchored->erase(std::unique(anchored->begin(), anchored->end()),
                  anchored->end());
}

/// The plan matching an anchored set in an already-built entry, or nullptr.
const SearchPlan* FindPlanIn(const PatternPlanEntry& entry,
                             const std::vector<PNodeId>& anchored) {
  for (const SearchPlan& plan : entry.plans) {
    if (plan.anchored == anchored) return &plan;
  }
  return nullptr;
}

}  // namespace

SearchPlan BuildSearchPlan(const Pattern& expanded,
                           std::vector<PNodeId> anchored, const Graph& g) {
  CanonicalizeAnchored(&anchored);
  const Pattern& p = expanded;
  SearchPlan plan;
  plan.anchored = std::move(anchored);

  std::vector<bool> placed(p.num_nodes(), false);
  auto place = [&](PNodeId u) {
    if (placed[u]) return;
    placed[u] = true;
    plan.order.push_back(u);
  };
  for (PNodeId u : plan.anchored) place(u);

  // Expected candidates for u per image of its placed neighbour a.other:
  // the edges of the pattern edge's label triple, spread over the nodes
  // carrying the neighbour's label.
  auto fan_out = [&](PNodeId u, const PatternAdj& a) {
    const LabelId lu = p.node(u).label;
    const LabelId lo = p.node(a.other).label;
    const uint64_t edges = a.out ? g.edge_triple_count(lu, a.elabel, lo)
                                 : g.edge_triple_count(lo, a.elabel, lu);
    const size_t from = g.label_count(lo);
    return from == 0 ? 0.0
                     : static_cast<double>(edges) / static_cast<double>(from);
  };
  while (plan.order.size() < p.num_nodes()) {
    PNodeId best = kNoPatternNode;
    double best_fan = 0;
    for (PNodeId u = 0; u < p.num_nodes(); ++u) {
      if (placed[u]) continue;
      for (const PatternAdj& a : p.adj(u)) {
        if (a.other == u || !placed[a.other]) continue;
        const double f = fan_out(u, a);
        if (best == kNoPatternNode || f < best_fan) {
          best = u;
          best_fan = f;
        }
      }
    }
    if (best == kNoPatternNode) {
      // Disconnected remainder: root it at the node whose label is rarest
      // (smallest candidate set).
      size_t best_count = 0;
      for (PNodeId u = 0; u < p.num_nodes(); ++u) {
        if (placed[u]) continue;
        const size_t c = g.label_count(p.node(u).label);
        if (best == kNoPatternNode || c < best_count) {
          best = u;
          best_count = c;
        }
      }
    }
    place(best);
  }
  return plan;
}

const PatternPlanEntry& SearchPlanStore::Prepare(
    const Pattern& p, std::span<const PNodeId> anchored) {
  return Prepare(p, anchored, PlanBuilder());
}

const PatternPlanEntry& SearchPlanStore::Prepare(
    const Pattern& p, std::span<const PNodeId> anchored,
    const PlanBuilder& build) {
  // Past the ceiling, consumers of a shared store fall back to their
  // private ones, and a private store re-plans.
  if (planned_ > kMaxCachedPatterns) {
    cache_.clear();
    planned_ = 0;
  }
  auto& bucket = cache_[StructuralHash(p)];
  PatternPlanEntry* entry = nullptr;
  for (PatternPlanEntry& e : bucket) {
    if (e.pattern == p) {
      entry = &e;
      break;
    }
  }
  if (entry == nullptr) {
    PatternPlanEntry fresh;
    fresh.pattern = p;
    fresh.expanded = p.ExpandMultiplicities(&fresh.first_copy);
    bucket.push_back(std::move(fresh));
    entry = &bucket.back();
    ++planned_;
  }
  key_.clear();
  for (PNodeId u : anchored) key_.push_back(entry->first_copy[u]);
  CanonicalizeAnchored(&key_);
  if (FindPlanIn(*entry, key_) == nullptr) {
    // The copy into the planner happens once per (pattern, anchor set),
    // not per probe.
    entry->plans.push_back(build ? build(entry->expanded, key_)
                                 : BuildSearchPlan(entry->expanded, key_, g_));
  }
  return *entry;
}

const PatternPlanEntry* SearchPlanStore::Find(const Pattern& p) const {
  auto it = cache_.find(StructuralHash(p));
  if (it == cache_.end()) return nullptr;
  for (const PatternPlanEntry& entry : it->second) {
    if (entry.pattern == p) return &entry;
  }
  return nullptr;
}

template <typename Leaf>
bool VF2Matcher::Extend(const Pattern& p, const SearchPlan& plan,
                        size_t level, Leaf& leaf) {
  std::vector<NodeId>& mapping = scratch_.mapping;
  if (level == plan.order.size()) return leaf(std::span<const NodeId>(mapping));
  const PNodeId u = plan.order[level];
  const LabelId want = p.node(u).label;

  // Candidate source: anchored value, or neighbors of the pivot (the mapped
  // neighbor whose labeled adjacency list is smallest), or the label index.
  // The per-level buffer is owned by the scratch and reused across calls.
  std::vector<NodeId>& cands = scratch_.cand_bufs[level];
  cands.clear();
  if (scratch_.anchor_of[u] != kInvalidNode) {
    cands.push_back(scratch_.anchor_of[u]);
  } else {
    std::span<const AdjEntry> best_slice;
    bool have_pivot = false;
    for (const PatternAdj& a : p.adj(u)) {
      if (a.other == u || mapping[a.other] == kInvalidNode) continue;
      // Pattern edge between u and the mapped node a.other: candidates for
      // u are the corresponding neighbors of mapping[a.other].
      std::span<const AdjEntry> slice =
          a.out ? g_.in_edges_labeled(mapping[a.other], a.elabel)
                : g_.out_edges_labeled(mapping[a.other], a.elabel);
      if (!have_pivot || slice.size() < best_slice.size()) {
        best_slice = slice;
        have_pivot = true;
      }
    }
    if (have_pivot) {
      cands.reserve(best_slice.size());
      for (const AdjEntry& e : best_slice) cands.push_back(e.other);
    } else {
      auto all = g_.nodes_with_label(want);
      cands.assign(all.begin(), all.end());
    }
  }

  for (NodeId v : cands) {
    ++nodes_visited_;
    if (g_.node_label(v) != want) continue;
    // Injectivity: the used bitmap mirrors `mapping` (set/cleared with it),
    // replacing the O(|P|) scan over mapped nodes.
    if (scratch_.used[v]) continue;
    // Every pattern edge between u and an already-mapped node (including
    // self-loops) must exist in the graph with the right label.
    bool edges_ok = true;
    for (const PatternAdj& a : p.adj(u)) {
      NodeId w;
      if (a.other == u) {
        w = v;
      } else if (mapping[a.other] != kInvalidNode) {
        w = mapping[a.other];
      } else {
        continue;
      }
      bool present = a.out ? g_.HasEdge(v, a.elabel, w)
                           : g_.HasEdge(w, a.elabel, v);
      if (!present) {
        edges_ok = false;
        break;
      }
    }
    if (!edges_ok) continue;

    mapping[u] = v;
    scratch_.used[v] = 1;
    bool keep_going = Extend(p, plan, level + 1, leaf);
    mapping[u] = kInvalidNode;
    scratch_.used[v] = 0;
    if (!keep_going) return false;
  }
  return true;
}

VF2Matcher::Resolved VF2Matcher::Resolve(const Pattern& p,
                                         std::span<const Anchor> anchors) {
  // The shared store first (a hit skips expansion + planning entirely),
  // then the private one; a hit in either costs one hash lookup, and only
  // a miss in both plans. The mapped-anchor and key buffers live in the
  // scratch so the probe hot path stays allocation-free after warmup; the
  // single-anchor case (every ExistsAt) is its own canonical key.
  std::vector<PNodeId>& anchored_nodes = scratch_.anchored;
  auto map_anchors = [&](const std::vector<PNodeId>& first_copy) {
    anchored_nodes.clear();
    for (const Anchor& a : anchors) anchored_nodes.push_back(first_copy[a.u]);
  };
  auto canonical_key = [&]() -> const std::vector<PNodeId>& {
    if (anchored_nodes.size() <= 1) return anchored_nodes;
    scratch_.anchored_key.assign(anchored_nodes.begin(), anchored_nodes.end());
    CanonicalizeAnchored(&scratch_.anchored_key);
    return scratch_.anchored_key;
  };
  const SearchPlanStore* const stores[] = {plan_store_, &own_plans_};
  for (const SearchPlanStore* store : stores) {
    if (store == nullptr) continue;
    if (const PatternPlanEntry* entry = store->Find(p)) {
      map_anchors(entry->first_copy);
      if (const SearchPlan* plan = FindPlanIn(*entry, canonical_key())) {
        return {&entry->expanded, plan, store == plan_store_};
      }
    }
  }
  // The original anchor ids go through the key buffer, which
  // `canonical_key` overwrites only after `Prepare` has read them.
  scratch_.anchored_key.clear();
  for (const Anchor& a : anchors) scratch_.anchored_key.push_back(a.u);
  const PatternPlanEntry& own = own_plans_.Prepare(p, scratch_.anchored_key);
  map_anchors(own.first_copy);
  return {&own.expanded, FindPlanIn(own, canonical_key()), false};
}

void VF2Matcher::BeginSearch(const Resolved& r,
                             std::span<const Anchor> anchors) {
  const Pattern& expanded = *r.expanded;
  scratch_.anchor_of.assign(expanded.num_nodes(), kInvalidNode);
  for (size_t i = 0; i < anchors.size(); ++i) {
    scratch_.anchor_of[scratch_.anchored[i]] = anchors[i].v;
  }

  if (scratch_.used.size() < g_.num_nodes()) {
    scratch_.used.assign(g_.num_nodes(), 0);
  }
  if (scratch_.cand_bufs.size() < r.plan->order.size()) {
    scratch_.cand_bufs.resize(r.plan->order.size());
  }
  // A previous search that unwound abnormally (an embedding callback threw)
  // skipped Extend's symmetric clears; sweep the stale path out of `used`
  // before the mapping is reset, or those nodes stay excluded forever.
  for (NodeId v : scratch_.mapping) {
    if (v != kInvalidNode) scratch_.used[v] = 0;
  }
  scratch_.mapping.assign(expanded.num_nodes(), kInvalidNode);
}

namespace {

/// Leaf action of an existence test: stop at the first embedding.
struct FirstMatch {
  bool found = false;
  bool operator()(std::span<const NodeId>) {
    found = true;
    return false;
  }
};

/// Leaf action of an enumeration: hand each embedding to the callback, up
/// to `limit` (0 = unlimited).
struct VisitEach {
  const EmbeddingCallback& cb;
  uint64_t limit;
  uint64_t count = 0;
  bool operator()(std::span<const NodeId> mapping) {
    ++count;
    bool keep_going = cb(mapping);
    if (limit != 0 && count >= limit) keep_going = false;
    return keep_going;
  }
};

}  // namespace

uint64_t VF2Matcher::Enumerate(const Pattern& p,
                               std::span<const Anchor> anchors,
                               const EmbeddingCallback& cb, uint64_t limit) {
  bound_ = {};
  const Resolved r = Resolve(p, anchors);
  if (r.shared) ++plan_store_hits_;
  BeginSearch(r, anchors);
  VisitEach leaf{cb, limit};
  Extend(*r.expanded, *r.plan, 0, leaf);
  return leaf.count;
}

bool VF2Matcher::Exists(const Pattern& p, std::span<const Anchor> anchors) {
  bound_ = {};
  const Resolved r = Resolve(p, anchors);
  if (r.shared) ++plan_store_hits_;
  BeginSearch(r, anchors);
  FirstMatch leaf;
  Extend(*r.expanded, *r.plan, 0, leaf);
  return leaf.found;
}

void VF2Matcher::BindNode(const Pattern& p, PNodeId u) {
  // The anchor value is a placeholder: ProbeAt writes each center into
  // the anchor table's one anchored slot.
  const Anchor a{u, kInvalidNode};
  bound_ = Resolve(p, {&a, 1});
  bound_node_ = scratch_.anchored[0];
  BeginSearch(bound_, {&a, 1});
}

bool VF2Matcher::ProbeAt(NodeId vx) {
  assert(bound_.plan != nullptr && "ProbeAt without a live Bind");
  if (bound_.shared) ++plan_store_hits_;
  scratch_.anchor_of[bound_node_] = vx;
  FirstMatch leaf;
  Extend(*bound_.expanded, *bound_.plan, 0, leaf);
  return leaf.found;
}

std::vector<NodeId> VF2Matcher::Images(const Pattern& p, PNodeId u) {
  std::vector<NodeId> out;
  auto cands = g_.nodes_with_label(p.node(u).label);
  if (cands.empty()) return out;
  BindNode(p, u);
  for (NodeId v : cands) {
    if (ProbeAt(v)) out.push_back(v);
  }
  bound_ = {};
  return out;
}

}  // namespace gpar
