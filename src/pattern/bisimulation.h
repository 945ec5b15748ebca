#ifndef GPAR_PATTERN_BISIMULATION_H_
#define GPAR_PATTERN_BISIMULATION_H_

#include <cstdint>
#include <vector>

#include "pattern/pattern.h"

namespace gpar {

/// Stable bisimulation colors of a pattern's nodes: two nodes get the same
/// color iff they are bisimilar (same label, matching out-edge behaviour),
/// computed by partition refinement [12].
std::vector<uint32_t> BisimulationColors(const Pattern& p);

/// True iff patterns `a` and `b` are bisimilar per the paper's definition
/// (Section 4.2) with their designated nodes x (and y, when present)
/// related: there is a relation Ob covering every node of each pattern,
/// pairing same-label nodes whose outgoing edges mutually match.
///
/// Lemma 4: if not bisimilar, the patterns cannot be automorphic — so this
/// is DMine's cheap O((|a|+|b|)^2) prefilter before the exact automorphism
/// check that fixes the designated nodes, which its rule grouping needs.
bool AreBisimilarDesignated(const Pattern& a, const Pattern& b);

}  // namespace gpar

#endif  // GPAR_PATTERN_BISIMULATION_H_
