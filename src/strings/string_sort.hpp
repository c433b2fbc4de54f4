#pragma once
// Lexicographic sorting of variable-length strings — Section 3.1, Lemma 3.8.
//
// The paper's Algorithm "sorting strings": peel off unit-length strings
// (they sort by one integer-sort pass and precede longer strings with the
// same first symbol), fold the remaining strings into ordered pairs, rank
// the pairs with an order-preserving renaming (total length drops to
// <= 2n/3), recurse, and finish the O(n/log n)-size residue with a
// comparison sort (Cole's mergesort in the paper; here a stable merge-path
// merge sort, whose O(log^2 n) depth against Cole's O(log n) does not
// matter on a fixed-core host).
//
// Baselines: std::stable_sort with span comparison, and a sequential MSD
// 3-way radix quicksort (Bentley–Sedgewick).

#include <span>
#include <vector>

#include "pram/types.hpp"

namespace sfcp::strings {

/// Compressed list of strings over a u32 alphabet.
struct StringList {
  std::vector<u32> data;     ///< concatenated symbols
  std::vector<u32> offsets;  ///< size m+1; string i = data[offsets[i]..offsets[i+1])

  std::size_t size() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  std::size_t total_symbols() const { return data.size(); }
  std::span<const u32> view(std::size_t i) const {
    return std::span<const u32>(data).subspan(offsets[i], offsets[i + 1] - offsets[i]);
  }
  void push_back(std::span<const u32> s) {
    if (offsets.empty()) offsets.push_back(0);
    data.insert(data.end(), s.begin(), s.end());
    offsets.push_back(static_cast<u32>(data.size()));
  }
};

StringList make_string_list(const std::vector<std::vector<u32>>& strings);

enum class StringSortStrategy { StdSort, MsdRadix, Parallel };

/// Returns a permutation `order` such that view(order[0]) <= view(order[1])
/// <= ... lexicographically; equal strings are ordered by index (so the
/// result is unique and strategies can be compared with ==).
std::vector<u32> sort_strings(const StringList& list,
                              StringSortStrategy strategy = StringSortStrategy::Parallel);

/// Three-way lexicographic comparison of u32 spans.
int compare_spans(std::span<const u32> a, std::span<const u32> b);

}  // namespace sfcp::strings
