#ifndef GPAR_PATTERN_PATTERN_OPS_H_
#define GPAR_PATTERN_PATTERN_OPS_H_

#include <cstdint>
#include <vector>

#include "pattern/pattern.h"

namespace gpar {

inline constexpr uint32_t kUnreachable = static_cast<uint32_t>(-1);

/// Undirected BFS distances from `from`; kUnreachable for disconnected
/// nodes. Multiplicity copies are treated as the single annotated node.
std::vector<uint32_t> DistancesFrom(const Pattern& p, PNodeId from);

/// r(Q, x): the longest undirected distance from `from` to any node
/// (Section 2.1). Returns kUnreachable if the pattern is disconnected.
uint32_t Radius(const Pattern& p, PNodeId from);

/// True iff the pattern is connected (undirected reachability).
bool IsConnected(const Pattern& p);

/// FNV-1a mixing primitives shared by the pattern hashes (StructuralHash
/// here, IsomorphismBucketHash in automorphism.h) and by callers that fold
/// several pattern hashes into one key.
inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;
inline uint64_t FnvMix(uint64_t h, uint64_t v) { return (h ^ v) * kFnvPrime; }

/// Structural FNV-1a hash over nodes, edges, and designated nodes. Equal
/// patterns (operator==) hash equal; collisions must be resolved by exact
/// equality in the consuming cache bucket. Shared by the matcher's search
/// plan cache, the rule maintainer's index of prior evidence and the
/// server's match-cache remap on a rule refresh.
/// Not isomorphism-invariant — node ids participate; use IsomorphismBucketHash
/// for iso-stable bucketing.
uint64_t StructuralHash(const Pattern& p);

/// True iff there is an injective, label- and edge-preserving embedding of
/// `sub` into `super`. With `anchor_designated`, sub's x must map to
/// super's x (and sub's y to super's y when both are set). This decides
/// pattern subsumption Q' ⊑ Q up to renaming of node ids.
bool IsSubsumedBy(const Pattern& sub, const Pattern& super,
                  bool anchor_designated);

/// An extension step used by pattern growth: attach a new edge to `at`
/// (forward: new node labeled `other_label`; backward: existing node
/// `existing`).
struct Extension {
  PNodeId at;             ///< existing pattern node the edge touches
  bool out;               ///< edge direction seen from `at`
  LabelId edge_label;
  LabelId other_label;    ///< label of the new node (forward extensions)
  PNodeId existing = kNoPatternNode;  ///< set for backward extensions

  friend bool operator==(const Extension&, const Extension&) = default;
};

/// Returns a copy of `p` with the extension applied.
Pattern ApplyExtension(const Pattern& p, const Extension& ext);

}  // namespace gpar

#endif  // GPAR_PATTERN_PATTERN_OPS_H_
