#pragma once
// Parallel loop wrappers realizing PRAM rounds on a WorkerPool.
//
// `parallel_for(lo, hi, body)` runs body(i) for i in [lo, hi) and counts one
// synchronous round of (hi - lo) operations.  Small ranges run sequentially
// (still counted) to avoid dispatch overhead dominating measurements.
//
// Every parallel round is one fan over session_pool(): the installed
// ExecutionContext's pool, else the calling thread's default pool.  On a
// pool WORKER thread, and while the coordinator runs a pool task inline,
// `threads()` is pinned to 1 (config.hpp), so nested rounds inside a pooled
// round run serially by construction: no oversubscription, and work/depth
// charges match a threads=1 session exactly.

#include <algorithm>
#include <cstddef>
#include <utility>

#include "pram/config.hpp"
#include "pram/metrics.hpp"
#include "pram/worker_pool.hpp"

namespace sfcp::pram {

/// Number of blocks `parallel_blocks` will use for an input of size n.
inline int num_blocks(std::size_t n) noexcept {
  if (n < grain() || threads() == 1) return 1;
  const std::size_t by_grain = (n + grain() - 1) / grain();
  return static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(threads()), by_grain));
}

/// [lo, hi) range of block b out of nb over n elements.
inline std::pair<std::size_t, std::size_t> block_range(std::size_t n, int nb, int b) noexcept {
  const std::size_t chunk = (n + static_cast<std::size_t>(nb) - 1) / static_cast<std::size_t>(nb);
  const std::size_t lo = std::min(n, chunk * static_cast<std::size_t>(b));
  const std::size_t hi = std::min(n, lo + chunk);
  return {lo, hi};
}

template <typename Body>
void parallel_for(std::size_t lo, std::size_t hi, Body&& body) {
  if (hi <= lo) return;
  const std::size_t n = hi - lo;
  charge_round(n);
  const int nt = threads();
  if (n < grain() || nt == 1) {
    for (std::size_t i = lo; i < hi; ++i) body(i);
    return;
  }
  const int nb = num_blocks(n);
  session_pool(nt).fan(static_cast<std::size_t>(nb), [&](std::size_t b) {
    const auto [blo, bhi] = block_range(n, nb, static_cast<int>(b));
    for (std::size_t i = lo + blo; i < lo + bhi; ++i) body(i);
  });
}

/// Blocked variant: body(block_index, lo, hi) — one contiguous block per
/// worker, the shape used by scan/sort-style two-pass kernels.  Every block
/// in [0, num_blocks(n)) runs exactly once.
template <typename Body>
void parallel_blocks(std::size_t n, Body&& body) {
  if (n == 0) return;
  const int nb = num_blocks(n);
  charge_round(n);
  if (nb == 1) {
    body(0, std::size_t{0}, n);
    return;
  }
  session_pool(threads()).fan(static_cast<std::size_t>(nb), [&](std::size_t b) {
    const auto [lo, hi] = block_range(n, nb, static_cast<int>(b));
    if (lo < hi) body(static_cast<int>(b), lo, hi);
  });
}

}  // namespace sfcp::pram
