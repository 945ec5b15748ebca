#ifndef GPAR_RULE_MATCH_DELTA_H_
#define GPAR_RULE_MATCH_DELTA_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/result.h"

namespace gpar {

/// Delta encoding for match-evidence center sets (the ROADMAP
/// "match-set-delta messages" item). Anti-monotonicity makes every child
/// rule's match set a subset of its parent's (levelwise mining, §4.2), so a
/// child set is cheaper to store as *positions into the parent list* than
/// as raw center ids: kept-positions when the child retained few centers,
/// removed-positions when it dropped few. High-support rules — the ones
/// with the largest sets — lose almost nothing per round, which is exactly
/// where removed-position frames collapse to a handful of words. The codec
/// serves the evidence section of rule-snapshot v2 (on disk) and the
/// evidence-size accounting in MaintainStats (`evidence_bytes_*`). DMine's
/// workers hand their match sets to the coordinator as global-id lists and
/// do not encode them.
enum class MatchDeltaMode : uint8_t {
  kKept = 0,     ///< payload = positions of the child's members in parent
  kRemoved = 1,  ///< payload = positions of parent members NOT in the child
  kFull = 2,     ///< payload = the raw child values (no usable parent)
};

/// One encoded set. `payload` holds parent positions (kKept / kRemoved,
/// strictly ascending) or raw values (kFull, strictly ascending).
struct MatchSetDelta {
  MatchDeltaMode mode = MatchDeltaMode::kFull;
  std::vector<uint32_t> payload;

  friend bool operator==(const MatchSetDelta&, const MatchSetDelta&) = default;
};

/// Encodes sorted-unique `child` against sorted-unique `parent`, picking the
/// smaller of kept/removed position lists. A child that is NOT a subset of
/// the parent (never the case for lineage evidence, but the codec must not
/// corrupt on it) falls back to kFull.
MatchSetDelta EncodeMatchSet(std::span<const uint32_t> child,
                             std::span<const uint32_t> parent);

/// Inverse of `EncodeMatchSet`: reconstructs the child values against the
/// same parent list. Corruption on out-of-range or non-ascending positions.
Result<std::vector<uint32_t>> DecodeMatchSet(const MatchSetDelta& delta,
                                             std::span<const uint32_t> parent);

/// Serialized form: u8 mode, u32 count, count x u32 payload.
void PutMatchSetDelta(std::string* buf, const MatchSetDelta& delta);
bool ReadMatchSetDelta(ByteReader* r, MatchSetDelta* delta);

/// Wire size of the encoding `EncodeMatchSet` would pick for a child of
/// `child_size` members inside a parent of `parent_size`, without
/// materializing either list. Feeds `MaintainStats::evidence_bytes_delta`.
size_t DeltaEncodedBytes(size_t child_size, size_t parent_size);

/// Wire size of the pre-delta full encoding (raw u32 center list).
size_t FullEncodedBytes(size_t child_size);

}  // namespace gpar

#endif  // GPAR_RULE_MATCH_DELTA_H_
