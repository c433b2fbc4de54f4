#pragma once
// Parallel merging and merge sort — the library's stand-in for Cole's
// parallel mergesort [8], which the paper invokes in step 5 of Algorithm
// "sorting strings" to finish the O(n/log n)-size residue.
//
// `parallel_merge` splits the output into evenly sized chunks and locates
// each chunk boundary with a "merge path" diagonal binary search (the
// co-ranking technique): O(log(|a|+|b|)) per boundary, after which every
// worker merges its slice independently.  O(n) work, O(log n) depth with
// n/log n workers — the same work/depth profile Cole's algorithm provides,
// which is all the paper relies on.
//
// `parallel_merge_sort` builds sorted runs bottom-up and merges them
// level-synchronously, ping-ponging between the input and one buffer: each
// width-doubling level is ONE parallel round (p blocks of the output, each
// block walking the run pairs it overlaps via merge-path co-ranking — the
// blocked p-way structure of pvfmm's parallel merge sort), not one round
// per pair.  O(n log n) work, O(log^2 n) depth (vs Cole's O(log n); the
// difference is immaterial on a fixed-core host and is recorded in
// DESIGN.md).  Each per-level round runs on the session's worker pool.
//
// Both are stable: ties prefer elements of `a` (merge) / earlier input
// positions (sort).

#include <algorithm>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "pram/parallel_for.hpp"
#include "pram/types.hpp"

namespace sfcp::prim {

/// Returns the "co-rank" split (ia, ib) with ia + ib == k such that merging
/// a[0..ia) with b[0..ib) yields the first k output elements of the stable
/// merge of a and b.  Binary search on the merge-path diagonal.
template <typename T, typename Cmp = std::less<T>>
std::pair<std::size_t, std::size_t> merge_path_split(std::span<const T> a, std::span<const T> b,
                                                     std::size_t k, Cmp cmp = Cmp{}) {
  // ia in [max(0, k-|b|), min(k, |a|)]; invariant of the stable merge split:
  //   a[ia-1] <= b[ib]   (every taken a precedes every untaken b; a wins ties)
  //   b[ib-1] <  a[ia]   (every taken b strictly precedes every untaken a)
  std::size_t lo = k > b.size() ? k - b.size() : 0;
  std::size_t hi = std::min(k, a.size());
  while (true) {
    const std::size_t ia = lo + (hi - lo) / 2;
    const std::size_t ib = k - ia;
    if (ia > 0 && ib < b.size() && cmp(b[ib], a[ia - 1])) {
      // a[ia-1] > b[ib]: too many taken from a.
      hi = ia - 1;
    } else if (ib > 0 && ia < a.size() && !cmp(b[ib - 1], a[ia])) {
      // b[ib-1] >= a[ia]: too many taken from b (a must win the tie).
      lo = ia + 1;
    } else {
      return {ia, ib};
    }
  }
}

/// Stable parallel merge of sorted ranges `a` and `b` into `out`
/// (out.size() must equal a.size() + b.size(); out must not alias inputs).
template <typename T, typename Cmp = std::less<T>>
void parallel_merge(std::span<const T> a, std::span<const T> b, std::span<T> out,
                    Cmp cmp = Cmp{}) {
  const std::size_t n = a.size() + b.size();
  if (n == 0) return;
  const int nb = pram::num_blocks(n);
  if (nb == 1) {
    std::merge(a.begin(), a.end(), b.begin(), b.end(), out.begin(), cmp);
    pram::charge(n);
    return;
  }
  pram::parallel_blocks(n, [&](int /*blk*/, std::size_t lo, std::size_t hi) {
    const auto [alo, blo] = merge_path_split(a, b, lo, cmp);
    const auto [ahi, bhi] = merge_path_split(a, b, hi, cmp);
    std::merge(a.begin() + alo, a.begin() + ahi, b.begin() + blo, b.begin() + bhi,
               out.begin() + lo, cmp);
  });
}

/// Stable parallel merge sort (bottom-up, ping-pong buffer).
template <typename T, typename Cmp = std::less<T>>
void parallel_merge_sort(std::span<T> data, Cmp cmp = Cmp{}) {
  const std::size_t n = data.size();
  if (n < 2) return;
  // Base runs: sequential stable sort of grain-sized chunks, in parallel.
  const std::size_t base = std::max<std::size_t>(pram::grain(), 32);
  const std::size_t num_runs = (n + base - 1) / base;
  pram::parallel_for(0, num_runs, [&](std::size_t r) {
    const std::size_t lo = r * base;
    const std::size_t hi = std::min(n, lo + base);
    std::stable_sort(data.begin() + lo, data.begin() + hi, cmp);
  });
  if (num_runs == 1) return;

  std::vector<T> buf(n);
  std::span<T> src = data;
  std::span<T> dst(buf);
  for (std::size_t width = base; width < n; width *= 2) {
    // One round per level: every block owns a contiguous slice of the
    // level's OUTPUT and walks the run pairs it overlaps, co-ranking its
    // entry into each pair with merge_path_split.  A pair wholly inside a
    // block is a plain std::merge; a pair spanning blocks is split at the
    // block boundary (each side merges its half independently).
    pram::parallel_blocks(n, [&](int /*blk*/, std::size_t lo, std::size_t hi) {
      std::size_t pos = lo;
      while (pos < hi) {
        const std::size_t pair_lo = pos - pos % (2 * width);
        const std::size_t mid = std::min(n, pair_lo + width);
        const std::size_t pair_hi = std::min(n, pair_lo + 2 * width);
        std::span<const T> a(src.data() + pair_lo, mid - pair_lo);
        std::span<const T> b(src.data() + mid, pair_hi - mid);
        const std::size_t out_hi = std::min(hi, pair_hi);
        const auto [alo, blo] = merge_path_split(a, b, pos - pair_lo, cmp);
        const auto [ahi, bhi] = merge_path_split(a, b, out_hi - pair_lo, cmp);
        std::merge(a.begin() + static_cast<std::ptrdiff_t>(alo),
                   a.begin() + static_cast<std::ptrdiff_t>(ahi),
                   b.begin() + static_cast<std::ptrdiff_t>(blo),
                   b.begin() + static_cast<std::ptrdiff_t>(bhi),
                   dst.begin() + static_cast<std::ptrdiff_t>(pos), cmp);
        pos = out_hi;
      }
    });
    std::swap(src, dst);
  }
  if (src.data() != data.data()) {
    pram::parallel_for(0, n, [&](std::size_t i) { data[i] = std::move(src[i]); });
  }
}

// Convenience non-template entry points (defined in merge.cpp).
void parallel_merge_u32(std::span<const u32> a, std::span<const u32> b, std::span<u32> out);
void parallel_merge_sort_u32(std::span<u32> data);
void parallel_merge_sort_u64(std::span<u64> data);

}  // namespace sfcp::prim
