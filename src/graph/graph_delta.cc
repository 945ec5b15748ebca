#include "graph/graph_delta.h"

#include <algorithm>

#include "common/binary_io.h"
#include "graph/graph_raw_access.h"
#include "graph/neighborhood.h"
#include "pattern/pattern.h"

namespace gpar {

namespace {

// "GPARDLTA", little-endian — distinct from the graph/rule snapshot magics
// so a delta frame fed to the wrong codec fails on the first 8 bytes.
constexpr uint64_t kDeltaMagic = 0x41544C4452415047ull;

constexpr auto ByEdge = [](const auto& a, const auto& b) {
  if (a.src != b.src) return a.src < b.src;
  if (a.label != b.label) return a.label < b.label;
  return a.dst < b.dst;
};

/// One adjacency entry addressed by its row: `e` in the slice of node `v`.
struct RowEntry {
  NodeId v;
  AdjEntry e;

  friend bool operator==(const RowEntry&, const RowEntry&) = default;
  friend auto operator<=>(const RowEntry& a, const RowEntry& b) {
    if (auto c = a.v <=> b.v; c != 0) return c;
    return a.e <=> b.e;
  }
};

// Merges one CSR direction: drops the `dels` entries from `old_adj` and
// splices in `ins`, in a single pass. Both lists are sorted by (row, entry);
// every delete names a present entry, and no insert does unless it is also
// deleted (delete-then-reinsert).
void MergeCsr(const std::vector<size_t>& old_offsets,
              const std::vector<AdjEntry>& old_adj,
              const std::vector<RowEntry>& dels,
              const std::vector<RowEntry>& ins, std::vector<size_t>* offsets,
              std::vector<AdjEntry>* adj) {
  const auto n = static_cast<NodeId>(old_offsets.size() - 1);
  offsets->assign(n + 1, 0);
  adj->reserve(old_adj.size() + ins.size() - dels.size());
  size_t next_ins = 0;  // cursor into `ins`
  size_t next_del = 0;  // cursor into `dels`
  for (NodeId v = 0; v < n; ++v) {
    size_t lo = old_offsets[v], hi = old_offsets[v + 1];
    while (lo < hi || (next_ins < ins.size() && ins[next_ins].v == v)) {
      // Deletes first: when the next old entry is the next delete's target,
      // drop it. This must precede the insert comparison so a
      // delete-then-reinsert of the same edge removes the old copy before
      // the (equal) insert is spliced in.
      if (lo < hi && next_del < dels.size() && dels[next_del].v == v &&
          old_adj[lo] == dels[next_del].e) {
        ++lo;
        ++next_del;
        continue;
      }
      if (next_ins < ins.size() && ins[next_ins].v == v &&
          (lo == hi || !(old_adj[lo] < ins[next_ins].e))) {
        adj->push_back(ins[next_ins++].e);
      } else {
        adj->push_back(old_adj[lo++]);
      }
    }
    (*offsets)[v + 1] = adj->size();
  }
}

// Moves the edge triple table by the batch: -1 per deleted edge and +1 per
// inserted one. A triple first seen is inserted in sorted order; one whose
// count falls to 0 is erased.
std::vector<EdgePatternStat> PatchTriples(
    const Graph& g, const std::vector<EdgeDelete>& dels,
    const std::vector<EdgeInsert>& fresh) {
  std::vector<std::pair<EdgePatternStat, int64_t>> moves;
  moves.reserve(dels.size() + fresh.size());
  auto triple = [&](NodeId src, LabelId label, NodeId dst) {
    return EdgePatternStat{g.node_label(src), label, g.node_label(dst), 0};
  };
  for (const EdgeDelete& e : dels) {
    moves.emplace_back(triple(e.src, e.label, e.dst), -1);
  }
  for (const EdgeInsert& e : fresh) {
    moves.emplace_back(triple(e.src, e.label, e.dst), 1);
  }
  std::sort(moves.begin(), moves.end(), [](const auto& a, const auto& b) {
    return TripleLess(a.first, b.first);
  });
  const std::span<const EdgePatternStat> old = g.edge_triples();
  std::vector<EdgePatternStat> out;
  out.reserve(old.size() + moves.size());
  size_t i = 0, j = 0;
  while (i < old.size() || j < moves.size()) {
    EdgePatternStat t;
    int64_t count;
    if (j == moves.size() ||
        (i < old.size() && TripleLess(old[i], moves[j].first))) {
      out.push_back(old[i++]);
      continue;
    }
    if (i < old.size() && !TripleLess(moves[j].first, old[i])) {
      t = old[i++];
      count = static_cast<int64_t>(t.count);
    } else {
      t = moves[j].first;
      count = 0;
    }
    for (; j < moves.size() && !TripleLess(t, moves[j].first); ++j) {
      count += moves[j].second;
    }
    t.count = static_cast<uint64_t>(count);
    if (count > 0) out.push_back(t);
  }
  return out;
}

// The merge routine behind `PatchGraph`: applies the (already normalized)
// deletes and inserts in one pass over each CSR direction, copies the node
// label index (node labels never change under a delta) and moves the edge
// triple counts by the applied edges. The result is bit-identical to a
// from-scratch rebuild of the patched edge set (`GraphDeltaTest`'s
// `*EqualsRebuilt` cases).
//
// Preconditions: `dels` sorted/unique with every entry present in `g`;
// `fresh` sorted/unique with no entry present in `g` *except* those also in
// `dels` (delete-then-reinsert). Both orders match the (label, other)
// adjacency sort within each source node.
Graph MergePatched(const Graph& g, const std::vector<EdgeDelete>& dels,
                   const std::vector<EdgeInsert>& fresh) {
  Graph out;
  GraphRawAccess::labels(out) = g.labels_ptr();
  GraphRawAccess::node_labels(out) = GraphRawAccess::node_labels(g);

  std::vector<RowEntry> out_dels, out_ins, in_dels, in_ins;
  out_dels.reserve(dels.size());
  in_dels.reserve(dels.size());
  for (const EdgeDelete& e : dels) {
    out_dels.push_back({e.src, {e.label, e.dst}});
    in_dels.push_back({e.dst, {e.label, e.src}});
  }
  out_ins.reserve(fresh.size());
  in_ins.reserve(fresh.size());
  for (const EdgeInsert& e : fresh) {
    out_ins.push_back({e.src, {e.label, e.dst}});
    in_ins.push_back({e.dst, {e.label, e.src}});
  }
  // The out lists are already in (src, label, dst) order; the in-CSR's
  // rows are destinations.
  std::sort(in_dels.begin(), in_dels.end());
  std::sort(in_ins.begin(), in_ins.end());
  MergeCsr(GraphRawAccess::out_offsets(g), GraphRawAccess::out_adj(g),
           out_dels, out_ins, &GraphRawAccess::out_offsets(out),
           &GraphRawAccess::out_adj(out));
  MergeCsr(GraphRawAccess::in_offsets(g), GraphRawAccess::in_adj(g), in_dels,
           in_ins, &GraphRawAccess::in_offsets(out),
           &GraphRawAccess::in_adj(out));
  GraphRawAccess::label_index(out) = GraphRawAccess::label_index(g);
  GraphRawAccess::edge_triples(out) = PatchTriples(g, dels, fresh);
  return out;
}

/// Inserts stay strict — a dangling endpoint or a label past the
/// dictionary's `num_labels` is a producer bug. Deletes are tolerant (see
/// EdgeDelete): anything that doesn't name a present edge lands in
/// `missing`.
Status CheckInserts(const GraphDelta& delta, NodeId n, size_t num_labels) {
  for (const EdgeInsert& e : delta.inserts) {
    if (e.src >= n || e.dst >= n) {
      return Status::InvalidArgument("edge insert endpoint out of range");
    }
    if (e.label >= num_labels) {
      return Status::InvalidArgument("edge insert label not interned");
    }
  }
  return Status::OK();
}

/// Checks `delta.label_defs` against `labels` without interning anything
/// and returns the dictionary size once they are interned: a def for a
/// known id (the dictionary's or one the batch defined earlier) must match
/// its name, and each new one must name the next id and a name not yet
/// known.
Result<size_t> CheckLabelDefs(const GraphDelta& delta,
                              const Interner& labels) {
  std::vector<std::string_view> minted;  // names of ids labels.size().. on
  for (const LabelDef& def : delta.label_defs) {
    const size_t size = labels.size() + minted.size();
    if (def.id < size) {
      const std::string_view known = def.id < labels.size()
                                         ? labels.Name(def.id)
                                         : minted[def.id - labels.size()];
      if (known != def.name) {
        return Status::Corruption("label def mismatch: id " +
                                  std::to_string(def.id) + " is \"" +
                                  std::string(known) + "\", frame says \"" +
                                  def.name + "\"");
      }
      continue;
    }
    if (def.id != size) {
      return Status::Corruption("label def skips ids: frame defines id " +
                                std::to_string(def.id) +
                                " but the dictionary has " +
                                std::to_string(size) + " labels");
    }
    if (labels.Lookup(def.name) != kNoLabel ||
        std::find(minted.begin(), minted.end(), def.name) != minted.end()) {
      return Status::Corruption("label \"" + def.name +
                                "\" already interned under another id");
    }
    minted.push_back(def.name);
  }
  return labels.size() + minted.size();
}

}  // namespace

Result<GraphPatch> PatchGraph(const Graph& g, const GraphDelta& delta) {
  const std::vector<EdgeInsert>& inserts = delta.inserts;
  const std::vector<EdgeDelete>& deletes = delta.deletes;
  const NodeId n = g.num_nodes();
  Interner& labels = *g.labels_ptr();
  GPAR_ASSIGN_OR_RETURN(const size_t num_labels,
                        CheckLabelDefs(delta, labels));
  GPAR_RETURN_NOT_OK(CheckInserts(delta, n, num_labels));
  // The whole batch checked out: only now may the dictionary grow, so a
  // rejected batch leaves no orphan label for a later frame to skip past.
  GraphPatch patch;
  for (const LabelDef& def : delta.label_defs) {
    if (def.id < labels.size()) continue;
    labels.Intern(def.name);
    patch.interned.push_back(def);
  }

  std::vector<EdgeDelete> dels(deletes.begin(), deletes.end());
  std::sort(dels.begin(), dels.end(), ByEdge);
  dels.erase(std::unique(dels.begin(), dels.end()), dels.end());
  std::erase_if(dels, [&](const EdgeDelete& e) {
    return e.src >= n || e.dst >= n || e.label >= labels.size() ||
           !g.HasEdge(e.src, e.label, e.dst);
  });
  patch.missing = deletes.size() - dels.size();
  patch.edges_deleted = dels.size();

  // Sort + dedup the inserts, then drop ones already present — unless that
  // same edge is being deleted in this batch, in which case the insert is a
  // genuine re-add and must survive the filter.
  std::vector<EdgeInsert> fresh(inserts.begin(), inserts.end());
  std::sort(fresh.begin(), fresh.end(), ByEdge);
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
  std::erase_if(fresh, [&](const EdgeInsert& e) {
    if (!g.HasEdge(e.src, e.label, e.dst)) return false;
    const EdgeDelete d{e.src, e.label, e.dst};
    return !std::binary_search(dels.begin(), dels.end(), d, ByEdge);
  });
  patch.duplicates = inserts.size() - fresh.size();
  patch.edges_inserted = fresh.size();

  patch.graph = MergePatched(g, dels, fresh);
  patch.applied = std::move(fresh);
  patch.applied_deletes = std::move(dels);
  return patch;
}

std::string GraphDelta::Serialize() const {
  std::string payload;
  PutU64(&payload, sequence);
  PutU32(&payload, static_cast<uint32_t>(inserts.size()));
  for (const EdgeInsert& e : inserts) {
    PutU32(&payload, e.src);
    PutU32(&payload, e.label);
    PutU32(&payload, e.dst);
  }
  // Pure-insert batches keep the v1 framing byte-for-byte, so pre-deletion
  // consumers (and archived v1 frames) stay interoperable in both
  // directions; batches that delete need v2, and only frames that carry
  // their own label dictionary (the journaled/shipped ones) pay for v3.
  const uint32_t version = !label_defs.empty() ? kFormatVersionV3
                           : deletes.empty()   ? kFormatVersion
                                               : kFormatVersionV2;
  if (version >= kFormatVersionV2) {
    PutU32(&payload, static_cast<uint32_t>(deletes.size()));
    for (const EdgeDelete& e : deletes) {
      PutU32(&payload, e.src);
      PutU32(&payload, e.label);
      PutU32(&payload, e.dst);
    }
  }
  if (version >= kFormatVersionV3) {
    PutU32(&payload, static_cast<uint32_t>(label_defs.size()));
    for (const LabelDef& def : label_defs) {
      PutU32(&payload, def.id);
      PutString(&payload, def.name);
    }
  }
  std::string out;
  PutU64(&out, kDeltaMagic);
  PutU32(&out, version);
  PutU64(&out, payload.size());
  PutU64(&out, Fnv1a64(payload));
  out += payload;
  return out;
}

Result<size_t> GraphDelta::FrameSize(std::string_view bytes) {
  ByteReader r(bytes);
  uint64_t magic, payload_size;
  uint32_t version;
  if (!r.ReadU64(&magic) || !r.ReadU32(&version) ||
      !r.ReadU64(&payload_size)) {
    return Status::Corruption("graph delta: truncated header");
  }
  if (magic != kDeltaMagic) {
    return Status::Corruption("graph delta: bad magic");
  }
  if (version < kFormatVersion || version > kFormatVersionV3) {
    return Status::Corruption("graph delta: unsupported version " +
                              std::to_string(version));
  }
  return static_cast<size_t>(kFrameHeaderBytes + payload_size);
}

Result<GraphDelta> GraphDelta::Deserialize(std::string_view bytes) {
  ByteReader r(bytes);
  uint64_t magic, payload_size, checksum;
  uint32_t version;
  if (!r.ReadU64(&magic) || !r.ReadU32(&version) || !r.ReadU64(&payload_size) ||
      !r.ReadU64(&checksum)) {
    return Status::Corruption("graph delta: truncated header");
  }
  if (magic != kDeltaMagic) {
    return Status::Corruption("graph delta: bad magic");
  }
  if (version < kFormatVersion || version > kFormatVersionV3) {
    return Status::Corruption("graph delta: unsupported version " +
                              std::to_string(version));
  }
  if (payload_size != r.remaining()) {
    return Status::Corruption("graph delta: payload size mismatch");
  }
  const std::string_view payload = bytes.substr(bytes.size() - r.remaining());
  if (Fnv1a64(payload) != checksum) {
    return Status::Corruption("graph delta: checksum mismatch");
  }
  GraphDelta delta;
  uint32_t count;
  if (!r.ReadU64(&delta.sequence) || !r.ReadU32(&count)) {
    return Status::Corruption("graph delta: truncated payload");
  }
  // Reserve bounded by the bytes actually present, so a corrupt count field
  // can't drive a huge allocation before the loop fails on the first read.
  delta.inserts.reserve(std::min<size_t>(count, r.remaining() / 12));
  for (uint32_t i = 0; i < count; ++i) {
    EdgeInsert e;
    if (!r.ReadU32(&e.src) || !r.ReadU32(&e.label) || !r.ReadU32(&e.dst)) {
      return Status::Corruption("graph delta: truncated payload");
    }
    delta.inserts.push_back(e);
  }
  if (version >= kFormatVersionV2) {
    if (!r.ReadU32(&count)) {
      return Status::Corruption("graph delta: truncated payload");
    }
    delta.deletes.reserve(std::min<size_t>(count, r.remaining() / 12));
    for (uint32_t i = 0; i < count; ++i) {
      EdgeDelete e;
      if (!r.ReadU32(&e.src) || !r.ReadU32(&e.label) || !r.ReadU32(&e.dst)) {
        return Status::Corruption("graph delta: truncated payload");
      }
      delta.deletes.push_back(e);
    }
  }
  if (version >= kFormatVersionV3) {
    if (!r.ReadU32(&count)) {
      return Status::Corruption("graph delta: truncated payload");
    }
    delta.label_defs.reserve(std::min<size_t>(count, r.remaining() / 8));
    for (uint32_t i = 0; i < count; ++i) {
      LabelDef def;
      if (!r.ReadU32(&def.id) || !r.ReadString(&def.name)) {
        return Status::Corruption("graph delta: truncated payload");
      }
      delta.label_defs.push_back(std::move(def));
    }
  }
  if (!r.exhausted()) {
    return Status::Corruption("graph delta: trailing bytes");
  }
  return delta;
}

void CollectLabelDefs(const Interner& labels, GraphDelta* delta,
                      std::span<const LabelDef> interned) {
  std::vector<LabelId> ids;
  ids.reserve(delta->inserts.size() + delta->deletes.size() + interned.size());
  for (const EdgeInsert& e : delta->inserts) ids.push_back(e.label);
  for (const EdgeDelete& e : delta->deletes) ids.push_back(e.label);
  for (const LabelDef& def : interned) ids.push_back(def.id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  delta->label_defs.clear();
  delta->label_defs.reserve(ids.size());
  for (LabelId id : ids) {
    // An id the dictionary does not know cannot be named; leave it out —
    // `PatchGraph` rejects the edge that references it anyway.
    if (id >= labels.size()) continue;
    delta->label_defs.push_back({id, labels.Name(id)});
  }
}

LabelId ResolveLabel(const Interner& labels, std::string_view name,
                     GraphDelta* delta) {
  const LabelId known = labels.Lookup(name);
  if (known != kNoLabel) return known;
  auto next = static_cast<LabelId>(labels.size());
  for (const LabelDef& def : delta->label_defs) {
    if (def.name == name) return def.id;
    next = std::max<LabelId>(next, def.id + 1);
  }
  delta->label_defs.push_back({next, std::string(name)});
  return next;
}

DeltaFootprint::DeltaFootprint(const Graph& old_g, const Graph& new_g,
                               std::span<const EdgeInsert> inserts,
                               std::span<const EdgeDelete> deletes,
                               uint32_t radius)
    : inserts(inserts),
      deletes(deletes),
      lost(old_g, deletes, radius),
      gained(new_g, inserts, radius) {
  std::vector<NodeId> endpoints;
  endpoints.reserve(2 * (inserts.size() + deletes.size()));
  for (const EdgeInsert& e : inserts) {
    endpoints.push_back(e.src);
    endpoints.push_back(e.dst);
  }
  for (const EdgeDelete& e : deletes) {
    endpoints.push_back(e.src);
    endpoints.push_back(e.dst);
  }
  std::sort(endpoints.begin(), endpoints.end());
  endpoints.erase(std::unique(endpoints.begin(), endpoints.end()),
                  endpoints.end());

  region = NodesWithinRadiusOfAny(new_g, endpoints, radius);
  if (!deletes.empty()) {
    auto before = NodesWithinRadiusOfAny(old_g, endpoints, radius);
    region.insert(region.end(), before.begin(), before.end());
  }
  // Sorting pairs lexicographically keeps the minimum distance first among
  // duplicates, so the unique pass below retains it.
  std::sort(region.begin(), region.end());
  region.erase(std::unique(region.begin(), region.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               region.end());
}

bool UsesTriple(const Pattern& p, const LabelTriple& t) {
  for (const PatternEdge& e : p.edges()) {
    if (e.label == t.edge && p.node(e.src).label == t.src &&
        p.node(e.dst).label == t.dst) {
      return true;
    }
  }
  return false;
}

const std::vector<uint32_t>* DeltaReach::For(const Pattern& p) {
  std::vector<uint32_t> used;
  for (uint32_t i = 0; i < edges_.size(); ++i) {
    if (UsesTriple(p, edges_[i].labels)) used.push_back(i);
  }
  if (used.empty()) return nullptr;
  auto [it, fresh] = memo_.try_emplace(std::move(used));
  if (fresh) {
    std::vector<NodeId> sources;
    for (uint32_t i : it->first) {
      sources.push_back(edges_[i].src);
      sources.push_back(edges_[i].dst);
    }
    it->second.assign(g_.num_nodes(), kFar);
    for (const auto& [v, dist] : NodesWithinRadiusOfAny(g_, sources, radius_)) {
      it->second[v] = dist;
    }
  }
  return &it->second;
}

}  // namespace gpar
