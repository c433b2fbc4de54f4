#pragma once
// Cycle structure of a functional graph: which nodes lie on cycles, which
// cycle each belongs to, its position ("rank") along the cycle, and a
// contiguous arrangement of all cycles — step 1 of the paper's Algorithm
// "cycle node labeling" (list-ranking based, Section 3).

#include <span>
#include <vector>

#include "pram/types.hpp"

namespace sfcp::graph {

enum class CycleStructureStrategy {
  Sequential,      ///< one walk per cycle from its least node, O(n) reference
  /// Ruling-set orbit ranking of f over the cycle nodes (prim::rank_orbits),
  /// O(n) expected work.  It keeps the name of the doubling it replaced, as
  /// does the registry's `jump` slug, so callers and strategy names stay.
  PointerJumping,
};

struct CycleStructure {
  std::vector<u8> on_cycle;   ///< 1 iff the node lies on a cycle
  std::vector<u32> leader;    ///< cycle nodes: the cycle's leader node; else kNone
  std::vector<u32> rank;      ///< cycle nodes: steps from leader along f (leader = 0)
  std::vector<u32> length;    ///< cycle nodes: length of their cycle
  // Contiguous arrangement (paper: "each cycle ... occupies consecutive
  // memory locations"):
  std::vector<u32> cycle_nodes;   ///< nodes of cycle c at [offset[c], offset[c+1]), by rank
  std::vector<u32> cycle_offset;  ///< CSR offsets, size num_cycles+1
  std::vector<u32> cycle_of;      ///< cycle nodes: dense cycle id; else kNone

  std::size_t num_cycles() const {
    return cycle_offset.empty() ? 0 : cycle_offset.size() - 1;
  }
  u32 cycle_length(std::size_t c) const { return cycle_offset[c + 1] - cycle_offset[c]; }
  /// Node at position r of cycle c.
  u32 node_at(std::size_t c, u32 r) const { return cycle_nodes[cycle_offset[c] + r]; }
};

/// Both strategies read the cycle nodes from on-cycle flags.  This form
/// takes them from find_cycle_nodes: the Sequential detector for the
/// Sequential structure, FunctionPowers (the f^N image) for PointerJumping.
CycleStructure cycle_structure(std::span<const u32> f,
                               CycleStructureStrategy strategy =
                                   CycleStructureStrategy::PointerJumping);

/// Variant with precomputed on-cycle flags (e.g. from find_cycle_nodes with
/// the paper's §5 Euler-tour detector); neither strategy re-detects them.
CycleStructure cycle_structure_with_flags(std::span<const u32> f, std::span<const u8> on_cycle,
                                          CycleStructureStrategy strategy);

/// Workspace-reusing variant: rebuilds `cs` in place, reusing its vectors'
/// capacity across calls (the Solver hot path).  `on_cycle` must not alias
/// `cs.on_cycle` (the flags are copied after the field is cleared).
void cycle_structure_with_flags_into(std::span<const u32> f, std::span<const u8> on_cycle,
                                     CycleStructureStrategy strategy, CycleStructure& cs);

}  // namespace sfcp::graph
