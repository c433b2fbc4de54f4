#pragma once
// Exact string matching — the substrate behind the paper's period-finding
// citations ([6] Breslauer–Galil, [20] Vishkin: optimal parallel string
// matching).  Periods, witnesses and occurrence sets are the machinery
// those papers build on; this module provides the occurrence-set interface
// with three interchangeable engines:
//
//   * match_kmp      — sequential Knuth–Morris–Pratt, O(n + m)
//   * match_z        — sequential Z-algorithm over pattern#text, O(n + m)
//   * match_parallel — parallel doubling-rank matcher: a RankTable over
//                      pattern#text gives O(1) substring equality per
//                      candidate, all candidates tested in one parallel
//                      round; O((n+m) log(n+m)) work, O(log(n+m)) depth
//                      (the standard work/depth substitution for [20]'s
//                      optimal matcher: simpler, at a log factor more
//                      work)
//
// All engines return the sorted list of starting positions of the pattern
// in the text.  The empty pattern matches at every position 0..n.

#include <span>
#include <vector>

#include "pram/types.hpp"

namespace sfcp::strings {

enum class MatchStrategy { Kmp, Z, Parallel };

/// All occurrences (sorted) of `pattern` in `text`.
std::vector<u32> find_occurrences(std::span<const u32> text, std::span<const u32> pattern,
                                  MatchStrategy strategy = MatchStrategy::Parallel);

/// KMP failure function of s: fail[i] = length of the longest proper border
/// of s[0..i] (size n, fail[0] = 0).
std::vector<u32> failure_function(std::span<const u32> s);

/// True iff `needle` occurs in the circular string `hay` (i.e. in hay·hay
/// restricted to starts < |hay|); needs |needle| <= |hay|.  This is the
/// cyclic-substring primitive behind rotation containment tests.
bool circular_contains(std::span<const u32> hay, std::span<const u32> needle);

/// Number of occurrences without materializing them (streaming KMP).
u64 count_occurrences(std::span<const u32> text, std::span<const u32> pattern);

}  // namespace sfcp::strings
