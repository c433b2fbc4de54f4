#pragma once
// Q-labels of cycle nodes — Section 3, Algorithm "cycle node labeling".
//
// Per cycle: reduce the B-label string to its smallest repeating prefix
// (period p), rotate it to its minimal starting point, then group cycles
// with identical reduced strings (= cyclic-shift-equivalent label strings)
// with Algorithm "partition" (§3.2).  Nodes of equivalent cycles whose
// ranks agree modulo p (relative to the m.s.p.) share one Q-label.
//
// With many cycles (at least two per thread) each cycle's period and
// m.s.p. come from one sequential pass (strings::period_and_msp), and the
// cycles are balanced across lanes by node count: each block of the
// cycle-node range takes the cycles that start inside it.  With few big
// cycles the configured kernels (CycleLabelingOptions) run within each
// cycle: the paper's parallel period and m.s.p. algorithms.

#include <span>
#include <vector>

#include "graph/cycle_structure.hpp"
#include "graph/functional_graph.hpp"
#include "pram/types.hpp"
#include "strings/msp.hpp"

namespace sfcp::core {

enum class RenameBackend {
  Hashed,  ///< arbitrary-CRCW BB-table emulation (paper's Algorithm partition)
  Sorted,  ///< integer-sort based renaming (order-preserving; ablation A1)
};

struct CycleLabelingOptions {
  strings::MspStrategy msp = strings::MspStrategy::Efficient;
  bool parallel_period = false;  ///< doubling-rank period finder instead of KMP
  RenameBackend partition_backend = RenameBackend::Hashed;
};

struct CycleLabeling {
  /// Q-labels for cycle nodes (kNone elsewhere); values in [0, num_labels).
  std::vector<u32> q;
  u32 num_labels = 0;
  /// Per-cycle diagnostics (indexed by dense cycle id).
  std::vector<u32> period;     ///< smallest repeating prefix length
  std::vector<u32> msp;        ///< m.s.p. of the period prefix
  std::vector<u32> class_id;   ///< equivalence class (dense, first-occurrence order)
  u32 num_classes = 0;
};

CycleLabeling label_cycles(const graph::Instance& inst, const graph::CycleStructure& cs,
                           const CycleLabelingOptions& opt = {});

/// Workspace-reusing variant: rebuilds `out` in place, reusing its vectors'
/// capacity across calls.
void label_cycles_into(const graph::Instance& inst, const graph::CycleStructure& cs,
                       const CycleLabelingOptions& opt, CycleLabeling& out);

/// Algorithm "partition" (§3.2): k strings of common power-of-two length L,
/// stored flat (string i at [i*L, (i+1)*L)).  Returns one representative
/// label per string such that two strings get equal labels iff they are
/// equal; O(kL) work via tree-structured pair renaming with stride-doubling
/// participation.
std::vector<u32> partition_equal_strings(std::span<const u32> flat, std::size_t k, std::size_t L,
                                         RenameBackend backend = RenameBackend::Hashed);

}  // namespace sfcp::core
