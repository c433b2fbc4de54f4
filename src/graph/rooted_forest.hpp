#pragma once
// Rooted forests hanging off the cycles of a pseudo-forest (Section 4).
//
// Every cycle node is the root of the tree formed by its non-cycle
// predecessors; tree edges point child -> parent = f(child).  A
// ForestContext holds what the tree labelling needs from the forest,
// computed once per solve: every node's level and owning root, and what
// root-path sums read.  Its children lists are the preimage lists of f's
// Euler partition (euler_tour.hpp), skipping each cycle node's cycle
// predecessor; siblings are ascending.
//
// As in the paper, the partition's ranked arcs become one tour of the
// whole forest.  Every Euler cycle is rotated to start at a cycle arc of
// its cycle's leader c0 (2c0 forward, 2c0+1 backward), and the cycles
// follow one another in cycle order, forward before backward.  So
// tree arcs come in balanced runs, each hanging from the head of the cycle
// arc before it.  With cycle arcs weighing zero, plain prefix sums over the
// tour give levels (+1 on down-arcs, -1 on up-arcs) and root-path sums
// (+v / -v); a cycle arc weighing its head minus the previous cycle arc's
// head gives owning roots.  When the solve's cycle detector built the
// partition it hands it over, so one partition is ranked per solve.
//
// The sequential tree labelling needs none of this: it walks each tree top
// down over the preimage lists alone (tree_labeling.hpp).  Builders write
// into an existing context and reuse the capacity of its vectors, so a
// reused solver workspace stops reallocating them.

#include <span>
#include <vector>

#include "graph/cycle_structure.hpp"
#include "graph/euler_tour.hpp"
#include "pram/types.hpp"

namespace sfcp::graph {

struct ForestContext {
  std::span<const u32> parent;  ///< f, viewed (parent of a root is its cycle successor)
  std::span<const u8> is_root;  ///< the on-cycle flags, viewed
  /// f's Euler partition.  With tree nodes, `arcs.pos` holds each arc's
  /// tour position and the succ and leader arrays serve as scratch.
  EulerPartition arcs;
  std::vector<u32> level;    ///< 0 for roots
  std::vector<u32> root_of;  ///< owning root (roots map to themselves)
  std::vector<u32> scratch;  ///< per-Euler-cycle table

  std::size_t size() const { return parent.size(); }
};

/// Builds the tour, levels and owning roots of f's forest into `ctx`,
/// deriving what it needs from the on-cycle flags.  `ctx` views f and
/// on_cycle, which must outlive every use of it.
void build_forest_context_into(std::span<const u32> f, std::span<const u8> on_cycle,
                               ForestContext& ctx);

/// The solve's form: reads the cycles from `cs`, and when `arcs_built`,
/// ctx.arcs already holds f's Euler partition, as find_cycle_nodes_into's
/// EulerTour detector leaves it, and is used as it stands.  `ctx` views f
/// and cs.on_cycle.
void build_forest_context_into(std::span<const u32> f, const CycleStructure& cs, bool arcs_built,
                               ForestContext& ctx);

/// out[x] = sum of vals over the path root(x) .. x (inclusive of both), by
/// one prefix sum over the tour, mod 2^32: two's-complement values give the
/// signed sum whenever it fits in 32 bits.  `out` may alias `vals`.
void root_path_sums(ForestContext& ctx, std::span<const u32> vals, std::span<u32> out);

}  // namespace sfcp::graph
