#pragma once
// List ranking: distance from every element of a linked list (given by a
// successor array) to the end of its list.
//
// The paper invokes the optimal O(log n)-time, O(n)-operation list ranking
// of Anderson & Miller [2] for arranging cycles contiguously and for the
// Euler-tour computations.  We provide three interchangeable strategies:
//   * Sequential    — walk each list (O(n) work, reference)
//   * PointerJumping — Wyllie's algorithm (O(log n) rounds, O(n log n) work)
//   * RulingSet     — sparse ruling set: list heads plus a hash sample of
//                     ~n/64 splitters, walk the gaps in parallel (several
//                     walks interleaved per lane so their cache misses
//                     overlap), rank the contracted list, expand (O(n)
//                     expected work)
// The ablation bench A2 compares them; the solve itself ranks no lists.
//
// `rank_orbits` is the ruling-set method applied to a permutation instead of
// a list: it gives every element its orbit's leader, its rank from the
// leader and the orbit's length.  Cycle detection (§5) ranks the Euler
// partition with it, which tree labelling (§4) then lays out as the
// forest's tour, and cycle structure (§3, step 1) ranks the cycles.

#include <span>
#include <vector>

#include "pram/types.hpp"
#include "prim/hash_table.hpp"

namespace sfcp::prim {

enum class ListRankStrategy { Sequential, PointerJumping, RulingSet };

/// next[i] = successor of i, or kNone at list ends.  Multiple disjoint lists
/// may be present.  Returns rank[i] = number of links from i to its list end
/// (rank of an end node is 0).  Lists must be acyclic.
std::vector<u32> list_rank(std::span<const u32> next,
                           ListRankStrategy strategy = ListRankStrategy::RulingSet);

/// The splitter sample both ruling-set rankers share: a deterministic hash
/// sample of about one id in 64.
inline bool is_ruling_splitter(u64 id) noexcept { return hash_u64(id) % 64 == 0; }

/// Orbits of the permutation `succ`, restricted to the elements flagged in
/// `active` (every element when `active` is empty).  The active set must be
/// closed under succ and succ one-to-one on it; inactive entries of succ are
/// never read.  For every active x:
///   leader[x] = the minimum element of x's orbit,
///   rank[x]   = steps from leader[x] to x along succ (0 at the leader),
///   length[x] = the orbit's length.
/// Inactive entries of the outputs are left untouched.  `rank` and `length`
/// may be empty when the caller needs only the leaders.
///
/// Method, as list_rank's RulingSet: the active splitters walk their
/// segments once, recording each element's segment and offset in the output
/// arrays.  Every element of an orbit without a splitter becomes a
/// one-element segment, so short orbits need no special case.  The
/// contracted permutation of segments (expected size n/64) is ranked by one
/// sequential walk, and one flat pass expands the result.  O(n) work even
/// when an orbit avoids every sample: it is then walked once as segments,
/// never re-walked.
///
/// Accounting: the contraction walk (here and in list_rank's RulingSet) is
/// charged as work but not as rounds, although its steps are dependent.
/// Where samples are sparse it is long: on util::splitter_free_cycle(2^20)
/// it is about 2M steps, most of cycle detection's time, with no round
/// counted, so pram::Metrics understates the depth of such inputs.
void rank_orbits(std::span<const u32> succ, std::span<const u8> active, std::span<u32> leader,
                 std::span<u32> rank, std::span<u32> length);

}  // namespace sfcp::prim
