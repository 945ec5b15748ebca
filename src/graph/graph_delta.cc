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

// The one merge routine behind all three Patch* entry points: applies the
// (already normalized) deletes and inserts in a single pass over the
// out-CSR, then re-derives the in-CSR and label index via the shared
// assembly routine — the same code path a from-scratch rebuild takes, which
// is what makes the result bit-identical to one.
//
// Preconditions: `dels` sorted/unique with every entry present in `g`;
// `fresh` sorted/unique with no entry present in `g` *except* those also in
// `dels` (delete-then-reinsert). Both orders match the (label, other)
// adjacency sort within each source node.
Graph MergePatched(const Graph& g, const std::vector<EdgeDelete>& dels,
                   const std::vector<EdgeInsert>& fresh) {
  const NodeId n = g.num_nodes();
  const auto& old_offsets = GraphRawAccess::out_offsets(g);
  const auto& old_adj = GraphRawAccess::out_adj(g);

  Graph out;
  GraphRawAccess::labels(out) = g.labels_ptr();
  GraphRawAccess::node_labels(out) = GraphRawAccess::node_labels(g);
  auto& offsets = GraphRawAccess::out_offsets(out);
  auto& adj = GraphRawAccess::out_adj(out);
  offsets.assign(n + 1, 0);
  adj.reserve(old_adj.size() + fresh.size() - dels.size());

  size_t next_ins = 0;  // cursor into `fresh`, sorted by src
  size_t next_del = 0;  // cursor into `dels`, sorted by src
  for (NodeId v = 0; v < n; ++v) {
    size_t lo = old_offsets[v], hi = old_offsets[v + 1];
    while (lo < hi || (next_ins < fresh.size() && fresh[next_ins].src == v)) {
      // Deletes first: when the next old entry is the next delete's target,
      // drop it. This must precede the insert comparison so a
      // delete-then-reinsert of the same edge removes the old copy before
      // the (equal) insert is spliced in.
      if (lo < hi && next_del < dels.size() && dels[next_del].src == v) {
        const AdjEntry de{dels[next_del].label, dels[next_del].dst};
        if (old_adj[lo] == de) {
          ++lo;
          ++next_del;
          continue;
        }
      }
      const bool has_insert =
          next_ins < fresh.size() && fresh[next_ins].src == v;
      if (!has_insert) {
        adj.push_back(old_adj[lo++]);
      } else {
        const AdjEntry ins{fresh[next_ins].label, fresh[next_ins].dst};
        if (lo < hi && old_adj[lo] < ins) {
          adj.push_back(old_adj[lo++]);
        } else {
          adj.push_back(ins);
          ++next_ins;
        }
      }
    }
    offsets[v + 1] = adj.size();
  }
  GraphRawAccess::FinishFromOutCsr(out);
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

/// Checks `delta.label_defs` against `labels` as `ApplyLabelDefs` would
/// intern them, without interning anything, and returns the dictionary
/// size once they are: a def for a known id (the dictionary's or one the
/// batch defined earlier) must match its name, and each new one must name
/// the next id and a name not yet known. Journal frames replay in append
/// order, so a well-formed journal only ever extends the dictionary one id
/// at a time, exactly the way the live server interned it.
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

Status ValidateDelta(const Graph& g, const GraphDelta& delta) {
  GPAR_ASSIGN_OR_RETURN(const size_t num_labels,
                        CheckLabelDefs(delta, g.labels()));
  return CheckInserts(delta, g.num_nodes(), num_labels);
}

Result<GraphPatch> PatchGraph(const Graph& g, const GraphDelta& delta) {
  const std::vector<EdgeInsert>& inserts = delta.inserts;
  const std::vector<EdgeDelete>& deletes = delta.deletes;
  const NodeId n = g.num_nodes();
  GPAR_RETURN_NOT_OK(CheckInserts(delta, n, g.labels().size()));

  GraphPatch patch;

  std::vector<EdgeDelete> dels(deletes.begin(), deletes.end());
  std::sort(dels.begin(), dels.end(), ByEdge);
  dels.erase(std::unique(dels.begin(), dels.end()), dels.end());
  std::erase_if(dels, [&](const EdgeDelete& e) {
    return e.src >= n || e.dst >= n || e.label >= g.labels().size() ||
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

void CollectLabelDefs(const Interner& labels, GraphDelta* delta) {
  std::vector<LabelId> ids;
  ids.reserve(delta->inserts.size() + delta->deletes.size());
  for (const EdgeInsert& e : delta->inserts) ids.push_back(e.label);
  for (const EdgeDelete& e : delta->deletes) ids.push_back(e.label);
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

Status ApplyLabelDefs(const GraphDelta& delta, Interner* labels) {
  GPAR_RETURN_NOT_OK(CheckLabelDefs(delta, *labels).status());
  for (const LabelDef& def : delta.label_defs) {
    if (def.id >= labels->size()) labels->Intern(def.name);
  }
  return Status::OK();
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

std::vector<std::pair<NodeId, uint32_t>> DeltaAffectedRegion(
    const Graph& old_g, const Graph& new_g,
    std::span<const EdgeInsert> applied,
    std::span<const EdgeDelete> applied_deletes, uint32_t radius) {
  std::vector<NodeId> endpoints;
  endpoints.reserve(2 * (applied.size() + applied_deletes.size()));
  for (const EdgeInsert& e : applied) {
    endpoints.push_back(e.src);
    endpoints.push_back(e.dst);
  }
  for (const EdgeDelete& e : applied_deletes) {
    endpoints.push_back(e.src);
    endpoints.push_back(e.dst);
  }
  std::sort(endpoints.begin(), endpoints.end());
  endpoints.erase(std::unique(endpoints.begin(), endpoints.end()),
                  endpoints.end());

  auto touched = NodesWithinRadiusOfAny(new_g, endpoints, radius);
  if (!applied_deletes.empty()) {
    auto before = NodesWithinRadiusOfAny(old_g, endpoints, radius);
    touched.insert(touched.end(), before.begin(), before.end());
  }
  // Sorting pairs lexicographically keeps the minimum distance first among
  // duplicates, so the unique pass below retains it.
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end(),
                            [](const auto& a, const auto& b) {
                              return a.first == b.first;
                            }),
                touched.end());
  return touched;
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
