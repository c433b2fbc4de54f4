#pragma once
// Euler tours of rooted forests (Tarjan–Vishkin [19]).
//
// Arc 2x is the down-arc (parent(x) -> x) and arc 2x+1 the up-arc
// (x -> parent(x)) of tree node x; roots (cycle nodes) contribute no arcs.
// The tours of all trees are chained into ONE linked list (tree after tree,
// roots in ascending order) so that a single list-ranking pass positions
// every arc.  Each tree's tour is one segment of the result; it is
// balanced (one up-arc per down-arc), so a plain prefix sum of per-arc
// +v / -v values restarts at zero at every segment start.  A solve builds
// the tour once, inside graph::ForestContext (rooted_forest.hpp), and
// reads levels, owning roots and root-path sums from it.

#include <span>
#include <vector>

#include "pram/types.hpp"
#include "prim/list_ranking.hpp"

namespace sfcp::graph {

struct RootedForest;

struct EulerTour {
  std::vector<u32> pos;       ///< global tour position per arc (kNone if unused)
  std::vector<u32> order;     ///< arc at each tour position (size = 2 * #tree nodes)
  std::vector<u8> seg_start;  ///< 1 at the first arc of each tree's tour
  std::vector<u32> seg_root;  ///< root of each segment's tree, in tour order

  static u32 down_arc(u32 x) { return 2 * x; }
  static u32 up_arc(u32 x) { return 2 * x + 1; }
  static u32 arc_node(u32 arc) { return arc / 2; }
  static bool is_down(u32 arc) { return (arc & 1) == 0; }
};

/// Builds the tour of `forest` into `tour`, reusing its vectors' capacity.
void build_euler_tour_into(const RootedForest& forest, EulerTour& tour,
                           prim::ListRankStrategy ranking = prim::ListRankStrategy::RulingSet);

}  // namespace sfcp::graph
