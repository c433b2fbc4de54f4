#include "graph/euler_tour.hpp"

#include "graph/rooted_forest.hpp"
#include "pram/parallel_for.hpp"
#include "prim/compact.hpp"

namespace sfcp::graph {

namespace {

u32 head_arc(const RootedForest& forest, u32 r) {
  return EulerTour::down_arc(forest.child[forest.child_off[r]]);
}

u32 tail_arc(const RootedForest& forest, u32 r) {
  return EulerTour::up_arc(forest.child[forest.child_off[r + 1] - 1]);
}

}  // namespace

void build_euler_tour_into(const RootedForest& forest, EulerTour& tour,
                           prim::ListRankStrategy ranking) {
  const std::size_t n = forest.size();
  // Successor of each arc in the chained tour.  It lives in `pos` until the
  // list is ranked; roots' arcs stay kNone in both roles.
  std::vector<u32>& succ = tour.pos;
  succ.assign(2 * n, kNone);
  pram::parallel_for(0, n, [&](std::size_t xi) {
    const u32 x = static_cast<u32>(xi);
    if (forest.is_root[x]) return;
    // down-arc: descend to the first child, or bounce straight back up.
    succ[EulerTour::down_arc(x)] = forest.degree(x) > 0
                                       ? EulerTour::down_arc(forest.child[forest.child_off[x]])
                                       : EulerTour::up_arc(x);
    // up-arc: continue to the next sibling, else climb (ends at a root).
    const u32 p = forest.parent[x];
    const u32 s = forest.sibling_index[x];
    if (s + 1 < forest.degree(p)) {
      succ[EulerTour::up_arc(x)] = EulerTour::down_arc(forest.child[forest.child_off[p] + s + 1]);
    } else if (!forest.is_root[p]) {
      succ[EulerTour::up_arc(x)] = EulerTour::up_arc(p);
    }  // else: end of this tree's tour (chained below)
  });
  // Chain the per-tree tours in ascending root order.
  const std::vector<u32> trees = prim::pack_index_if(forest.roots.size(), [&](std::size_t i) {
    return forest.degree(forest.roots[i]) > 0;
  });
  tour.seg_root.resize(trees.size());
  pram::parallel_for(0, trees.size(), [&](std::size_t i) {
    tour.seg_root[i] = forest.roots[trees[i]];
  });
  const std::size_t total = 2 * (n - forest.roots.size());
  if (total == 0) {  // no tree nodes: nothing to rank, and `pos` is all kNone
    tour.order.clear();
    tour.seg_start.clear();
    return;
  }
  pram::parallel_for(1, trees.size(), [&](std::size_t i) {
    succ[tail_arc(forest, tour.seg_root[i - 1])] = head_arc(forest, tour.seg_root[i]);
  });
  // Rank the single chained list: the head has rank total - 1, so
  // position = total - 1 - rank.
  const std::vector<u32> rank = prim::list_rank(succ, ranking);
  tour.order.resize(total);
  tour.seg_start.assign(total, 0);
  pram::parallel_for(0, 2 * n, [&](std::size_t a) {
    if (forest.is_root[EulerTour::arc_node(static_cast<u32>(a))]) return;
    const u32 p = static_cast<u32>(total - 1) - rank[a];
    tour.pos[a] = p;
    tour.order[p] = static_cast<u32>(a);
  });
  pram::parallel_for(0, trees.size(), [&](std::size_t i) {
    tour.seg_start[tour.pos[head_arc(forest, tour.seg_root[i])]] = 1;
  });
}

}  // namespace sfcp::graph
