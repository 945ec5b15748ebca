#ifndef GPAR_GRAPH_GRAPH_DELTA_H_
#define GPAR_GRAPH_GRAPH_DELTA_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"

namespace gpar {

/// One edge insertion src --label--> dst. Endpoints must already exist in
/// the graph (deltas add edges, not nodes); the label must be interned in
/// the graph's dictionary or defined by the batch's `label_defs`.
struct EdgeInsert {
  NodeId src;
  LabelId label;
  NodeId dst;

  friend bool operator==(const EdgeInsert&, const EdgeInsert&) = default;
};

/// One edge deletion src --label--> dst. Unlike inserts, deletes are
/// tolerant by design: a delete naming an edge (or endpoint, or label) the
/// graph does not have is counted in `GraphPatch::missing`, not rejected —
/// CDC-style producers routinely replay cleanups against state that
/// already converged.
struct EdgeDelete {
  NodeId src;
  LabelId label;
  NodeId dst;

  friend bool operator==(const EdgeDelete&, const EdgeDelete&) = default;
};

/// One label-dictionary definition carried alongside a serialized delta:
/// the interned id and the name it stands for. Deltas reference labels by
/// id, which is only meaningful against the producer's dictionary — a
/// journal frame replayed against a freshly loaded snapshot may reference
/// labels interned live *after* that snapshot was written. Frames carry
/// their own definitions so replay can re-intern exactly the ids it needs
/// (see `PatchGraph`).
struct LabelDef {
  LabelId id;
  std::string name;

  friend bool operator==(const LabelDef&, const LabelDef&) = default;
};

/// A versioned batch of edge mutations — the unit mutations travel in:
/// `ServeSession::ApplyDelta` takes one, and the delta journal stores the
/// serialized form. `sequence` orders batches from a single producer (the
/// session stamps it; standalone callers may leave it 0).
///
/// Within one batch, deletes apply before inserts: an edge that appears in
/// both lists ends up PRESENT in the patched graph (delete-then-reinsert),
/// and is counted on both sides of the `GraphPatch` tally.
struct GraphDelta {
  /// Insert-only wire format (PR 5/6): no `deletes` section. Still written
  /// for pure-insert batches, so pre-deletion consumers keep interoperating.
  static constexpr uint32_t kFormatVersion = 1;
  /// Mutation-stream wire format: `deletes` follow the inserts.
  static constexpr uint32_t kFormatVersionV2 = 2;
  /// Durable wire format: a `label_defs` section follows the deletes, so a
  /// journaled frame is self-describing — replay against a snapshot older
  /// than the frame re-interns the label names the frame minted.
  static constexpr uint32_t kFormatVersionV3 = 3;

  uint64_t sequence = 0;
  std::vector<EdgeInsert> inserts;
  std::vector<EdgeDelete> deletes;
  /// Label definitions (sorted by id). Journaled frames define every
  /// distinct label their edges reference (`CollectLabelDefs`); a live
  /// batch defines only the labels it mints (`ResolveLabel`) and is
  /// otherwise empty.
  std::vector<LabelDef> label_defs;

  /// Framed little-endian encoding (see common/binary_io): magic
  /// "GPARDLTA", u32 version, u64 payload size, u64 FNV-1a payload
  /// checksum, then the payload {u64 sequence, u32 insert_count,
  /// insert_count x (u32 src, u32 label, u32 dst)}, — version >= 2 —
  /// {u32 delete_count, delete_count x (u32 src, u32 label, u32 dst)},
  /// and — version 3 — {u32 def_count, def_count x (u32 id, u32 name_len,
  /// name bytes)}. The writer picks the lowest version that can carry the
  /// batch: no deletes and no defs -> 1 (byte-identical to the PR 6
  /// encoding), deletes but no defs -> 2, any defs -> 3.
  std::string Serialize() const;
  /// Inverse of `Serialize`; accepts all three wire versions. Corruption
  /// on bad magic/version/checksum or a truncated or oversized buffer.
  static Result<GraphDelta> Deserialize(std::string_view bytes);

  /// Serialized frame header length (magic + version + payload size +
  /// checksum) — frames are self-delimiting, which is what lets the delta
  /// journal detect a torn tail without a separate length index.
  static constexpr size_t kFrameHeaderBytes = 8 + 4 + 8 + 8;
  /// Total on-disk frame length (header + payload) declared by the header
  /// at the start of `bytes`. Validates magic and version only — the
  /// payload need not be present (or intact) yet; `bytes` may extend past
  /// the frame. Corruption when even the header is truncated or foreign.
  static Result<size_t> FrameSize(std::string_view bytes);

  friend bool operator==(const GraphDelta&, const GraphDelta&) = default;
};

/// Result of patching a graph with a mutation batch.
struct GraphPatch {
  Graph graph;                ///< the patched graph (shares the interner)
  size_t edges_inserted = 0;  ///< new edges actually added
  size_t duplicates = 0;      ///< inserts already present (or repeated)
  size_t edges_deleted = 0;   ///< edges actually removed
  size_t missing = 0;  ///< deletes of absent/out-of-range edges (or repeated)
  /// The inserts that actually changed the graph (sorted, deduplicated,
  /// pre-existing edges removed) — the set delta invalidation starts from.
  std::vector<EdgeInsert> applied;
  /// The deletes that actually removed an edge (sorted, deduplicated) —
  /// the other half of the invalidation frontier.
  std::vector<EdgeDelete> applied_deletes;
  /// The batch's label defs this patch interned (ids past the dictionary's
  /// size before it), in id order. A journal frame of the batch must carry
  /// them all (`CollectLabelDefs`), referenced by an applied edge or not:
  /// a later frame's new ids follow them.
  std::vector<LabelDef> interned;

  /// False when the batch changed nothing (all duplicates / missing).
  bool changed() const noexcept {
    return !applied.empty() || !applied_deletes.empty();
  }
};

/// Fills `delta->label_defs` with a definition for every distinct label id
/// its edges reference and every def in `interned` (the batch's
/// `GraphPatch::interned`), sorted by id, named from `labels`. The session
/// calls this right before journaling a frame, which is what makes
/// journaled frames replayable against an older snapshot: no id the batch
/// interned is left for a later frame's def to skip. Ids the dictionary
/// does not know are skipped — `PatchGraph` rejects such a delta anyway.
void CollectLabelDefs(const Interner& labels, GraphDelta* delta,
                      std::span<const LabelDef> interned = {});

/// The edge-label id `name` will have once `delta` is applied against
/// `labels`: a known name resolves by `Lookup`; an unseen one gets the next
/// id, in first-seen order across the batch, and a `LabelDef` is appended
/// to `delta->label_defs`. `PatchGraph` interns those defs, under the
/// server's writer lock when a server applies the batch, so building a
/// batch from textual input never mutates the dictionary a server shares
/// with its readers.
LabelId ResolveLabel(const Interner& labels, std::string_view name,
                     GraphDelta* delta);

/// The one way a batch enters a graph (a server's `ApplyDelta` and
/// journal replay, the rule maintainer's `ApplyDelta`). All or nothing, it
///  1. checks the whole batch: each label def must name a known id by its
///     name or the next id by a new name, as in-order replay of a journal
///     extends the dictionary (else Corruption); each insert needs nodes of
///     `g` and a label known once the defs are in (else InvalidArgument);
///  2. interns the new defs into g's shared dictionary, so a frame minted
///     after a snapshot was written resolves against it;
///  3. applies `delta.deletes` then `delta.inserts` to the immutable CSR
///     graph, producing a new `Graph` bit-identical to rebuilding from the
///     final edge list (old edges \ deletes) ∪ inserts. Deletes of absent
///     edges are counted in `GraphPatch::missing`, never fatal.
///
/// Cost is O(|V| + |E| + k log k) for k mutations: the batch is sorted and
/// merged into the out-CSR in one pass — no global edge re-sort — and the
/// in-CSR and label index are re-derived by the shared assembly routine.
/// The paper's serving scenario applies small deltas to large graphs, where
/// the merge is dominated by the memcpy of the untouched adjacency.
Result<GraphPatch> PatchGraph(const Graph& g, const GraphDelta& delta);

class Pattern;  // pattern/pattern.h

/// The labels (label(src), edge label, label(dst)) of one delta edge. Node
/// labels never change under a `GraphDelta`.
struct LabelTriple {
  LabelId src;
  LabelId edge;
  LabelId dst;
};

/// Whether some edge of `p` carries `t`. Matching is label-exact, so a
/// delta edge whose triple `p` lacks is never the image of a pattern edge:
/// it can neither create nor destroy a match of `p`.
bool UsesTriple(const Pattern& p, const LabelTriple& t);

/// The affected-area bound of incremental pattern matching (Fan, Wang and
/// Wu, TODS 2013), per pattern, for one direction of an applied batch —
/// its inserts, measured on the new graph, or its deletes, measured on the
/// old one — and the distance arrays built from it so far. A pattern's
/// array covers only the delta edges it uses; patterns share few distinct
/// such subsets, so each array is built once per batch, whichever consumer
/// asks first. Only `DeltaFootprint` builds one.
///
/// The test it supports: a center's membership in `p` can change only if
/// a delta edge `p` uses lies within `p`'s eval radius of the center, in
/// the direction that can flip the old answer — a delete (on the old
/// graph) for a member, an insert (on the new graph) for a non-member.
/// Subgraph matching is monotone in the edge set, so inserts never destroy
/// a match and deletes never create one. The rule maintainer (evidence
/// patching) and the serving tier (cache invalidation) both decide with it.
class DeltaReach {
 public:
  /// Distance of a node no used delta edge reaches within the radius.
  static constexpr uint32_t kFar = static_cast<uint32_t>(-1);

  /// Per node, the distance (exact up to the footprint's radius, else
  /// kFar) to the nearest endpoint of a delta edge `p` uses; nullptr when
  /// `p` uses none. Not thread-safe: it memoizes.
  const std::vector<uint32_t>* For(const Pattern& p);

 private:
  friend class DeltaFootprint;
  template <typename Mutation>
  DeltaReach(const Graph& g, std::span<const Mutation> applied,
             uint32_t radius)
      : g_(g), radius_(radius) {
    for (const Mutation& m : applied) {
      const LabelTriple t{g.node_label(m.src), m.label, g.node_label(m.dst)};
      edges_.push_back({m.src, m.dst, t});
    }
  }

  struct Edge {
    NodeId src;
    NodeId dst;
    LabelTriple labels;
  };
  const Graph& g_;
  const uint32_t radius_;
  std::vector<Edge> edges_;
  /// Indices of the used delta edges -> their distance array.
  std::map<std::vector<uint32_t>, std::vector<uint32_t>> memo_;
};

/// What one applied batch changed, and where: built once per batch from
/// `PatchGraph`'s applied mutations and read by both the rule maintainer
/// (evidence patching) and the serving tier (cache invalidation). It
/// references both graphs and the spans, which must outlive it. `radius`
/// must be at least every tested pattern's eval radius; distances are
/// exact up to it and consumers filter by each pattern's own radius, so a
/// larger footprint answers exactly as a smaller one would.
class DeltaFootprint {
 public:
  DeltaFootprint(const Graph& old_g, const Graph& new_g,
                 std::span<const EdgeInsert> inserts,
                 std::span<const EdgeDelete> deletes, uint32_t radius);

  /// The applied mutations (`GraphPatch::applied`/`applied_deletes`).
  std::span<const EdgeInsert> inserts;
  std::span<const EdgeDelete> deletes;
  /// The delta-affected region, sorted by node: every node within `radius`
  /// of a touched endpoint, at its minimum distance — by locality (Section
  /// 5.1) the only nodes whose memberships can have changed. With deletes
  /// the old graph is swept too: a center whose only path to a deleted
  /// edge ran through it is beyond `radius` on the new graph, yet its ball
  /// lost the edge.
  std::vector<std::pair<NodeId, uint32_t>> region;
  DeltaReach lost;    ///< the deletes, on the old graph
  DeltaReach gained;  ///< the inserts, on the new graph
};

}  // namespace gpar

#endif  // GPAR_GRAPH_GRAPH_DELTA_H_
