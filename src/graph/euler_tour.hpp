#pragma once
// The Euler partition of a pseudo-forest (paper §5, after Tarjan–Vishkin
// [19]), built once per solve for both cycle detection and tree labelling.
//
// Every edge (x, f(x)) is doubled: arc 2x runs x -> f(x) and its buddy
// 2x+1 runs f(x) -> x.  The out-arcs of v, in circular order, are 2v and
// then the buddies 2p+1 of v's preimages p in ascending order; the
// successor of an arc into v is the out-arc of v that follows the arc's
// buddy.  The orbits of that permutation are the Euler cycles: two per
// pseudo-tree, a forward one through the arcs 2c of its cycle nodes c and a
// backward one through their buddies 2c+1.  A tree edge's two arcs share an
// Euler cycle, so cycle detection reads the cycle nodes off the orbit
// leaders (cycle_detect.hpp).
//
// Restricted to tree arcs, the partition is the Tarjan–Vishkin tour of
// every tree: a tree node x is entered by its down-arc 2x+1, visits its
// children in ascending order and leaves by its up-arc 2x.  Between two
// consecutive cycle arcs of an Euler cycle lies a balanced run of whole
// subtrees, all hanging from the head of the first: f(x) after arc 2x, x
// after arc 2x+1.  So a cycle node v with cycle predecessor u has its
// children above u in the forward cycle and those below u in the backward
// one.  The forest context (rooted_forest.hpp) lays the ranked cycles out
// as one tour of the whole forest and reads levels, owning roots and
// root-path sums off it.
//
// A permutation has no tree nodes, so every node is a cycle node and there
// is no tour to lay out: the solve's partition of a permutation is its
// preimage lists alone (build_euler_partition_unless_permutation).

#include <span>
#include <vector>

#include "pram/types.hpp"

namespace sfcp::graph {

struct EulerPartition {
  std::vector<u32> pre_off;  ///< preimage CSR offsets (size n+1)
  std::vector<u32> pre;      ///< each node's preimages, ascending
  std::vector<u32> succ;     ///< Euler successor of each arc (size 2n)
  std::vector<u32> leader;   ///< minimum arc of the arc's Euler cycle
  /// Steps from the leader to the arc, when ranked.  The forest context
  /// rewrites it in place as the arc's position in the forest's tour.
  std::vector<u32> pos;
  /// pos is set.  Ranking is skipped when every in-degree is 1: f is then
  /// a permutation, without tree nodes.  succ and leader may then be empty
  /// too, so a reader checks `ranked` before either.
  bool ranked = false;

  std::span<const u32> preimages(u32 v) const {
    return {pre.data() + pre_off[v], pre.data() + pre_off[v + 1]};
  }
  /// The arc before `arc` in its Euler cycle, from the successor rule run
  /// backwards.  `f` is the function the partition was built from.
  u32 pred(std::span<const u32> f, u32 arc) const;

  static u32 up_arc(u32 x) { return 2 * x; }        ///< x -> f(x)
  static u32 down_arc(u32 x) { return 2 * x + 1; }  ///< f(x) -> x
};

/// The preimage lists of f alone (pre_off, pre); leaves `ranked` false.
/// The counting pass also detects a permutation, whose lists
/// (pre[v] = f^-1(v)) are then written with no scan or sort.
void build_preimages_into(std::span<const u32> f, EulerPartition& arcs);

/// The whole partition: preimages, successors, Euler-cycle leaders by
/// ruling-set orbit ranking (prim::rank_orbits), and ranks unless f is a
/// permutation.  O(n) expected work.  Reuses the capacity of `arcs`'
/// vectors.  An Euler cycle's length is one more than the rank of its
/// leader's predecessor.
void build_euler_partition_into(std::span<const u32> f, EulerPartition& arcs);

/// The partition as a solve needs it: the whole partition when f has tree
/// nodes, and only the preimage lists when f is a permutation, with succ
/// and leader emptied (their capacity kept) and `ranked` false.  Returns
/// whether the successors and leaders were built.
bool build_euler_partition_unless_permutation(std::span<const u32> f, EulerPartition& arcs);

}  // namespace sfcp::graph
