#pragma once
// Parallel compaction (a.k.a. pack / filter): collect the indices or values
// whose flag is set, preserving order.  Scan-based, O(n) work.

#include <cstddef>
#include <span>
#include <vector>

#include "pram/parallel_for.hpp"
#include "pram/types.hpp"
#include "prim/scan.hpp"

namespace sfcp::prim {

/// Returns the indices i (ascending) for which pred(i) is truthy.  pred
/// runs once per index, in one parallel round, so it may also write
/// per-index outputs of its own.
template <typename Pred>
std::vector<u32> pack_index_if(std::size_t n, Pred&& pred) {
  std::vector<u32> flag(n);
  pram::parallel_for(0, n, [&](std::size_t i) { flag[i] = pred(i) ? 1u : 0u; });
  std::vector<u32> pos(n);
  const u32 total = exclusive_scan<u32>(flag, pos);
  std::vector<u32> out(total);
  pram::parallel_for(0, n, [&](std::size_t i) {
    if (flag[i]) out[pos[i]] = static_cast<u32>(i);
  });
  return out;
}

/// Returns the indices i with flags[i] != 0, ascending.
std::vector<u32> pack_index(std::span<const u8> flags);

/// Returns values[i] for each i with flags[i] != 0, in order.
std::vector<u32> pack_values(std::span<const u32> values, std::span<const u8> flags);

}  // namespace sfcp::prim
