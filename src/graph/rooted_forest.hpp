#pragma once
// Rooted forests hanging off the cycles of a pseudo-forest (Section 4).
//
// Every cycle node is the root of the tree formed by its non-cycle
// predecessors; tree edges point child -> parent = f(child).  A
// RootedForest adds children lists (siblings in ascending id order, so the
// result is the same across strategies) to views of f and the on-cycle
// flags.  A ForestContext holds what the tree labelling needs from the
// forest, computed once per solve: the forest itself, every node's level
// and owning root, and, under the EulerTour strategy, the one Euler tour
// (euler_tour.hpp) that levels, roots and root-path sums are all read from.
// The three strategies: sequential DFS, Euler tour + prefix sums (the
// paper's), ancestor doubling.  Builders write into an existing context
// and reuse the capacity of its n-sized vectors, so a reused solver
// workspace stops reallocating them.

#include <span>
#include <vector>

#include "graph/euler_tour.hpp"
#include "pram/types.hpp"

namespace sfcp::graph {

struct RootedForest {
  std::span<const u32> parent;     ///< f, viewed (parent of a root is its cycle successor)
  std::span<const u8> is_root;     ///< the on-cycle flags, viewed
  std::vector<u32> child_off;      ///< CSR offsets into child (size n+1)
  std::vector<u32> child;          ///< tree children, siblings ascending
  std::vector<u32> sibling_index;  ///< position of a tree node among its siblings
  std::vector<u32> roots;          ///< all root nodes, ascending

  std::size_t size() const { return parent.size(); }
  u32 degree(u32 v) const { return child_off[v + 1] - child_off[v]; }
};

/// Builds the forest of `f` into `out`.  `out` views f and on_cycle rather
/// than copying them, so both must outlive every use of `out`.
void build_rooted_forest_into(std::span<const u32> f, std::span<const u8> on_cycle,
                              RootedForest& out);

enum class ForestStrategy { Sequential, EulerTour, AncestorDoubling };

struct ForestContext {
  ForestStrategy strategy = ForestStrategy::EulerTour;
  RootedForest forest;
  EulerTour tour;            ///< built by the EulerTour strategy, empty under the others
  std::vector<u32> level;    ///< 0 for roots
  std::vector<u32> root_of;  ///< owning root (roots map to themselves)
  std::vector<u32> scratch;  ///< prefix sums over the tour, or the DFS stack
};

/// Builds the forest of `f`, its levels and owning roots (and, under
/// EulerTour, its tour) into `ctx`.  Like the forest, `ctx` views f and
/// on_cycle, which must outlive every use of it.
void build_forest_context_into(std::span<const u32> f, std::span<const u8> on_cycle,
                               ForestStrategy strategy, ForestContext& ctx);

/// out[x] = sum of vals over the path root(x) .. x (inclusive of both), by
/// ctx's strategy, mod 2^32: two's-complement values give the signed sum
/// whenever it fits in 32 bits.  `out` may alias `vals`.
void root_path_sums(ForestContext& ctx, std::span<const u32> vals, std::span<u32> out);

}  // namespace sfcp::graph
