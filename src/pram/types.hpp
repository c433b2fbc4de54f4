#pragma once
// Common scalar types used throughout the library.
//
// Indices, node ids, B-labels and Q-labels all live in [0, n) with
// n < 2^32 - 2, so everything is a u32; pairs of labels pack into a single
// u64 radix-sort key, which is what makes the paper's "integer sorting over
// [1..n^{O(1)}]" cheap to realize.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace sfcp {

using u8 = std::uint8_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i64 = std::int64_t;

/// Sentinel for "no index / empty cell" (matches pram::kEmptyCell<u32>).
inline constexpr u32 kNone = std::numeric_limits<u32>::max();

/// Packs a pair of 32-bit labels into one sortable 64-bit key
/// (lexicographic order of the pair == numeric order of the key).
inline constexpr u64 pack_pair(u32 hi, u32 lo) noexcept {
  return (static_cast<u64>(hi) << 32) | lo;
}

inline constexpr u32 pair_hi(u64 key) noexcept { return static_cast<u32>(key >> 32); }
inline constexpr u32 pair_lo(u64 key) noexcept { return static_cast<u32>(key); }

/// Splitmix-style hash for u32 sequences — the map key of the incremental
/// solver's reduced-cycle-string map.
struct U32VecHash {
  std::size_t operator()(const std::vector<u32>& v) const noexcept {
    u64 h = 0x9e3779b97f4a7c15ull ^ (static_cast<u64>(v.size()) * 0xbf58476d1ce4e5b9ull);
    for (u32 x : v) {
      u64 z = h + x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      h = z ^ (z >> 27);
    }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace sfcp
