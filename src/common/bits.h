#ifndef GPAR_COMMON_BITS_H_
#define GPAR_COMMON_BITS_H_

#include "common/require_cxx20.h"  // IWYU pragma: keep

#include <cstdint>

namespace gpar {

/// Number of set bits in `x`: the one bit count of the library (match
/// bitsets, cache probe masks).
///
/// The build targets baseline x86-64, which has no POPCNT instruction, so
/// `std::popcount` compiles to an out-of-line libgcc call per word. That
/// call dominated incDiv's pair scan, whose inner loop is one AND and one
/// bit count per word. This inline SWAR count is branch-free, a dozen
/// register operations, and the compiler can schedule it in the caller's
/// loop. A build that enables POPCNT itself (say `-march=native`) gets the
/// instruction instead.
inline uint32_t PopCount(uint64_t x) {
#if defined(__POPCNT__)
  return static_cast<uint32_t>(__builtin_popcountll(x));
#else
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return static_cast<uint32_t>((x * 0x0101010101010101ull) >> 56);
#endif
}

}  // namespace gpar

#endif  // GPAR_COMMON_BITS_H_
