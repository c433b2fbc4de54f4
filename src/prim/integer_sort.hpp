#pragma once
// Stable parallel integer sorting over [0, n^{O(1)}).
//
// The paper uses the deterministic parallel integer sort of Bhatt et al. [4]
// as a black box; it is the single source of the O(n log log n) term in
// Theorem 5.1.  We realize the same interface with a stable LSD radix sort:
// a private digit histogram per block, offsets taken digit-major over the
// blocks' histograms, and a stable scatter — linear work per digit pass.

#include <cstddef>
#include <span>
#include <vector>

#include "pram/types.hpp"

namespace sfcp::prim {

/// Stable sort permutation by 64-bit key: returns `order` such that
/// keys[order[0]] <= keys[order[1]] <= ... and equal keys keep their input
/// order.  `max_key` bounds the key values (pass 0 to have it computed).
std::vector<u32> sort_order_by_key(std::span<const u64> keys, u64 max_key = 0);

/// Sorts `keys` in place (values permuted alongside if non-empty).
void radix_sort(std::vector<u64>& keys, std::vector<u32>* values = nullptr, u64 max_key = 0);

/// Number of 8-bit digit passes needed for keys bounded by max_key.
int radix_passes(u64 max_key) noexcept;

}  // namespace sfcp::prim
