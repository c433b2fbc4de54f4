#pragma once
// Q-labels of tree nodes — Section 4, Algorithm "tree node labeling".
//
// An instance whose nodes all lie on cycles has no trees, and its
// labelling is the cycle labelling.  Under the two parallel strategies, the
// forest facts every step needs (levels, owning roots, root-path sums) come
// from one graph::ForestContext per solve: prefix sums over the forest's
// Euler tour, read off the Euler partition that cycle detection (§5)
// ranked, so a solve builds and ranks that partition once, for both
// sections.
// Step 1-2: a tree node x at level l is "marked" iff its B-label equals
// that of its corresponding cycle node f^{k - (l mod k)}(r) (Lemma 4.1).
// Step 3: a node keeps its mark only if its whole root path is marked (one
// root-path prefix sum instead of iterative unmarking).  Step 4: kept nodes
// copy the Q-label of their corresponding cycle node.  Step 5 (Lemma 4.2):
// the residual forest is labelled so that Q[x] = Q[y] iff B[x] = B[y] and
// Q[f(x)] = Q[f(y)] — realized by a global (B, Q_parent) -> fresh-label
// renaming.  The paper reaches O(n) operations in O(log n) time here with
// Kedem–Palem's renaming.  The first two strategies bracket that bound,
// each giving up one half of it; the third is the sequential reference:
//   * LevelSynchronous — O(n) work, depth = residual tree height.  One level
//     sort and one gather renumber the residual nodes into level order:
//     node ids, and (B, parent) keys whose parent half is the parent's
//     Q-label, or for a residual parent its level-order slot.  Each level's
//     round then streams over its slice, reading parents' labels from the
//     earlier slices, and prefetches table slots a few keys ahead.
//   * AncestorDoubling — O(log n) depth, O(n log depth) work
//   * SequentialDFS    — O(n): steps 1-5 in one top-down walk per tree over
//     f's preimage lists, every per-node value (corresponding cycle
//     position, mark and label) following from the parent's.  It builds no
//     forest context beyond those lists.

#include <span>
#include <vector>

#include "core/cycle_labeling.hpp"
#include "graph/cycle_structure.hpp"
#include "graph/functional_graph.hpp"
#include "graph/rooted_forest.hpp"
#include "pram/types.hpp"
#include "prim/hash_table.hpp"

namespace sfcp::core {

enum class TreeLabelStrategy { LevelSynchronous, AncestorDoubling, SequentialDFS };

struct TreeLabelingOptions {
  TreeLabelStrategy strategy = TreeLabelStrategy::LevelSynchronous;
};

struct TreeLabeling {
  std::vector<u32> q;  ///< complete labelling (cycle labels passed through)
  u32 kept = 0;        ///< tree nodes that reuse a cycle label (steps 2-4)
  u32 residual = 0;    ///< tree nodes labelled in step 5
  /// The solve's forest, levels, roots and tour.  It views the instance's f
  /// and the cycle structure's on_cycle, so read it only while both live.
  /// Under SequentialDFS it holds only f's preimage lists (`forest.arcs`).
  /// A solve without tree nodes leaves it as it stands.
  graph::ForestContext forest;
  /// Step 5's (B, parent label) table when it is large, kept so that
  /// same-sized solves reuse its slots instead of faulting in a fresh
  /// mapping; a small one is released after each solve.
  prim::ConcurrentPairMap table;
};

/// Extends the cycle labelling `cl` to all tree nodes.  Rebuilds `out` in
/// place, reusing the capacity of its labels, forest context and table
/// across calls.
void label_trees_into(const graph::Instance& inst, const graph::CycleStructure& cs,
                      const CycleLabeling& cl, const TreeLabelingOptions& opt, TreeLabeling& out);

/// The solve's form: when `arcs_built`, out.forest.arcs already holds
/// inst.f's Euler partition, as find_cycle_nodes_into's EulerTour detector
/// left it there, and the forest context (under SequentialDFS, the walk)
/// uses it instead of building its own.
void label_trees_into(const graph::Instance& inst, const graph::CycleStructure& cs,
                      const CycleLabeling& cl, const TreeLabelingOptions& opt, TreeLabeling& out,
                      bool arcs_built);

}  // namespace sfcp::core
