#pragma once
// Minimal starting point (m.s.p.) of a circular string — Section 3.1.
//
// Given a circular string C = (c_0 .. c_{n-1}), the m.s.p. is the index j0
// whose rotation is lexicographically least (for repeating strings: the
// smallest such index).  The paper contributes two parallel algorithms:
//
//   * Algorithm "simple m.s.p."    — block duels with Lemma 3.3 tie-breaks;
//                                    O(log n) time, O(n log n) operations.
//   * Algorithm "efficient m.s.p." — mark minima runs, fold runs into
//                                    ordered pairs, rank-rename (Lemma 3.5,
//                                    length drops to <= 2n/3 per level,
//                                    Lemma 3.6), recurse to n/log n, finish
//                                    with the simple algorithm; O(log n)
//                                    time, O(n log log n) operations
//                                    (Lemma 3.7).
//
// Sequential references: Booth's O(n) algorithm [5] and a Duval/Lyndon-based
// O(n) algorithm (Shiloach [17] plays this role in the paper), plus an
// O(n^2) brute force for testing.
//
// `period_and_msp` is the sequential kernel cycle labelling runs once per
// cycle when there are many cycles: the two-pointer least-rotation scan
// gives the smallest period and the m.s.p. of the period prefix together,
// in one pass without scratch memory.

#include <span>
#include <vector>

#include "pram/types.hpp"

namespace sfcp::strings {

enum class MspStrategy { Brute, Booth, Duval, Simple, Efficient };

/// Booth's least-rotation algorithm, O(n) sequential.
u32 msp_booth(std::span<const u32> s);

/// Smallest period (as smallest_period_seq) and m.s.p. of a string.
struct PeriodMsp {
  u32 period = 0;  ///< smallest p dividing the length with s = (s[0..p))^{n/p}
  u32 msp = 0;     ///< smallest minimal starting point, in [0, period)
};

/// Both in one O(n) sequential scan: candidates i and j are compared k
/// symbols on; the loser of a mismatch, and the k candidates after it, are
/// dropped.  The smaller survivor is the m.s.p.; when k reaches n the two
/// rotations are equal and |i - j| is the smallest period, otherwise the
/// string is primitive.  {0, 0} for the empty string.
PeriodMsp period_and_msp(std::span<const u32> s);

/// Lyndon-factorization (Duval-style) least rotation, O(n) sequential.
u32 msp_duval(std::span<const u32> s);

/// O(n^2) reference for tests.
u32 msp_brute(std::span<const u32> s);

/// Paper's Algorithm "simple m.s.p.".  Requires a NON-REPEATING input
/// (unique m.s.p.); use minimal_starting_point() for arbitrary strings.
u32 msp_simple(std::span<const u32> s);

/// Paper's Algorithm "efficient m.s.p.".  Requires a NON-REPEATING input.
u32 msp_efficient(std::span<const u32> s);

/// Strategy-dispatched m.s.p. for arbitrary (possibly repeating) input:
/// repeating strings are first reduced to their smallest repeating prefix,
/// exactly as the paper prescribes.  Returns the smallest minimal index.
u32 minimal_starting_point(std::span<const u32> s, MspStrategy strategy);

/// The rotation of s starting at its m.s.p. (canonical form of the
/// circular string; two circular strings are equal iff their canonical
/// forms are equal).
std::vector<u32> canonical_rotation(std::span<const u32> s,
                                    MspStrategy strategy = MspStrategy::Booth);

}  // namespace sfcp::strings
