#pragma once
// Label renaming — mapping tuples of labels to fresh single labels.  This is
// the recurring move of the paper:
//
// * `rename_sorted` (order-preserving, dense ranks): sort the packed pairs,
//   rank by adjacent-difference + prefix sum, scatter back.  Used where
//   lexicographic ORDER must survive the renaming (m.s.p. step 3, string
//   sorting step 3).  This is where integer sorting — and hence the
//   O(n log log n) term — enters.
// * `rename_hashed` (equality-preserving only, arbitrary labels in [0, n)):
//   the arbitrary-CRCW BB-table trick of Algorithm partition.  O(n) work,
//   labels are winner positions; order is NOT preserved.

#include <span>
#include <vector>

#include "pram/types.hpp"

namespace sfcp::prim {

struct RenameResult {
  std::vector<u32> labels;  ///< per-element new label
  u32 num_classes = 0;      ///< number of distinct inputs (dense modes only)
};

/// Order-preserving dense renaming of 64-bit keys: equal keys get equal
/// labels, labels are 0..num_classes-1 in key order.
RenameResult rename_sorted(std::span<const u64> keys, u64 max_key = 0);

/// Order-preserving dense renaming of pairs (a[i], b[i]).
RenameResult rename_pairs_sorted(std::span<const u32> a, std::span<const u32> b);

/// Equality-preserving renaming via concurrent hashing (BB-table emulation):
/// equal keys get equal labels; labels are arbitrary values in [0, keys.size())
/// (the winning element's index).  num_classes is not computed (set to 0).
RenameResult rename_hashed(std::span<const u64> keys);

/// Equality-preserving renaming of pairs via hashing.
RenameResult rename_pairs_hashed(std::span<const u32> a, std::span<const u32> b);

/// Canonicalizes labels to first-occurrence order: out[i] in [0, k), equal
/// iff in[i] equal, and the first occurrences are numbered 0,1,2,...
/// Sequential O(n): a first-occurrence array when every label is below
/// 2 * labels.size() (always true of a solve's labels, which stay below
/// num_labels + n), else a flat hash table.  Every solve ends with it (so
/// that any two strategies return identical arrays), and tests use it to
/// compare partitions for equality.
RenameResult canonicalize_labels(std::span<const u32> labels);

}  // namespace sfcp::prim
