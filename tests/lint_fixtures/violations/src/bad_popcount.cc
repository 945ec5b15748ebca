#include <bit>
#include <cstdint>

namespace fixture {

int Members(uint64_t word) { return std::popcount(word); }

}  // namespace fixture
