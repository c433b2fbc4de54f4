#pragma once
// Finding the cycle nodes of a pseudo-forest — Section 5, Algorithm
// "finding cycle nodes".
//
// The paper's method: double every edge (x, f(x)) with a buddy (f(x), x),
// apply the Tarjan–Vishkin Euler-partition successor rule [19] to the
// resulting multigraph, and observe that each pseudo-tree decomposes into
// exactly two Euler cycles such that a GRAPH-cycle edge and its buddy land
// in different Euler cycles while a tree edge and its buddy share one.
//
// Strategies:
//   * Sequential     — visited-walk reference, O(n)
//   * FunctionPowers — cycle nodes = image of f^N (N >= n) by repeated
//                      squaring, O(n log n) work / O(log n) depth
//   * EulerTour      — the paper's §5 algorithm: the Euler partition of
//                      euler_tour.hpp (preimage lists by counting sort,
//                      Euler cycles by ruling-set orbit ranking), O(n)
//                      expected work.  A solve keeps the partition: tree
//                      labelling reads the forest's tour, levels and roots
//                      off the same ranked arcs.  On a permutation every
//                      node is a cycle node and the partition stops at the
//                      preimage lists, as no tree needs a tour.

#include <span>
#include <vector>

#include "graph/euler_tour.hpp"
#include "pram/types.hpp"

namespace sfcp::graph {

enum class CycleDetectStrategy { Sequential, FunctionPowers, EulerTour };

/// on_cycle[x] = 1 iff x lies on a cycle of the functional graph of f.
std::vector<u8> find_cycle_nodes(std::span<const u32> f,
                                 CycleDetectStrategy strategy = CycleDetectStrategy::EulerTour);

/// Workspace-reusing variant: writes the flags into `on_cycle` (resized to
/// f.size(); existing capacity is reused across calls).
void find_cycle_nodes_into(std::span<const u32> f, CycleDetectStrategy strategy,
                           std::vector<u8>& on_cycle);

/// As above, and under EulerTour leaves f's Euler partition in `arcs` for
/// the tree labelling (the forest context of rooted_forest.hpp, or the
/// sequential walk's preimage lists): for a permutation its ascending
/// preimage lists only, with `ranked` false and succ and leader empty
/// (build_euler_partition_unless_permutation).  The other strategies leave
/// `arcs` untouched.
void find_cycle_nodes_into(std::span<const u32> f, CycleDetectStrategy strategy,
                           std::vector<u8>& on_cycle, EulerPartition& arcs);

}  // namespace sfcp::graph
