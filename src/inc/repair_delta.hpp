#pragma once
// RepairDelta — the structured record of what one repair window changed,
// and the value that moves dirtiness through the serving stack.
//
// Every repair performed by inc::IncrementalSolver retracts and reassigns
// the raw labels of its dirty region; the delta accumulates that churn
// between two flush points (IncrementalSolver::take_delta or view()):
//
//   * nodes            — the nodes whose raw label may have changed, in
//                        repair order, deduplicated;
//   * classes_created  — raw labels that went from dead (population 0) at
//                        the window start to live at its end;
//   * classes_destroyed— raw labels that went live -> dead;
//   * classes_resized  — raw labels live at both ends whose membership was
//                        touched (their identity — signature or reduced
//                        cycle string — is provably unchanged, see
//                        incremental_solver.hpp, so consumers may skip
//                        them);
//   * full             — at least one edit in the window fell back to a
//                        whole-partition rebuild, which renames the entire
//                        label space: the per-node/per-class lists are
//                        meaningless and cleared, and the consumer must
//                        refresh from scratch.
//
// Consumers: core::PartitionView COW patch chains are built from
// delta.nodes (PartitionView::patched_from_delta); the adaptive repair
// policy fits its crossover from the per-delta cost observations
// (pram::CostModel); the class lists let a consumer update per-class state
// at O(dirty classes).
//
// Kept dependency-free (std + pram/types only), like inc::Edit, so tooling
// can speak deltas without pulling in the solver.

#include <cstddef>
#include <vector>

#include "pram/types.hpp"

namespace sfcp::inc {

struct RepairDelta {
  u64 epoch = 0;        ///< solver epoch at the flush point
  u64 edits = 0;        ///< state-changing edits folded into the window
  u32 repairs = 0;      ///< edits served by the local repair path
  u32 rebuilds = 0;     ///< edits (or batches) served by a full re-solve
  u64 dirty_nodes = 0;  ///< total dirty-region size across the window
  bool full = false;    ///< whole-partition delta (lists below are cleared)

  // The lists are deduplicated and deterministically ordered (repair/touch
  // order for a given edit stream), but not sorted — consumers that need an
  // order impose their own.
  std::vector<u32> nodes;              ///< relabelled nodes, repair order
  std::vector<u32> classes_created;    ///< raw labels dead -> live over the window
  std::vector<u32> classes_destroyed;  ///< raw labels live -> dead over the window
  std::vector<u32> classes_resized;    ///< raw labels live -> live, membership touched

  /// No state-changing edit was folded in (lists are all empty too).
  bool empty() const noexcept { return edits == 0; }

  /// Classes a consumer has to look at (created + destroyed + resized).
  std::size_t touched_classes() const noexcept {
    return classes_created.size() + classes_destroyed.size() + classes_resized.size();
  }
};

/// What published views changed since a consumer last asked — the
/// notification-side projection of RepairDelta.  Incremental producers
/// accumulate the nodes each view()'s patch carried; a rebuild (or any
/// whole-partition refresh, including the construction view) downgrades the
/// window to `full`, after which the node list is meaningless and cleared.
/// Consumers map `nodes` to changed classes through the view that flushed
/// them (class_of per node, O(dirty)); on `full` they refresh everything.
/// Flushing (Engine::take_view_delta) resets the window.
struct ViewDelta {
  u64 epoch = 0;           ///< epoch of the most recent published view
  bool full = true;        ///< whole-partition refresh owed
  std::vector<u32> nodes;  ///< relabelled nodes since the last flush (unsorted,
                           ///< may repeat across windows; empty when full)
};

/// Lifetime totals over flushed deltas (monotonic; the delta-granular
/// sibling of EditStats, surfaced through sfcp::Engine::stats()).
struct DeltaStats {
  u64 windows = 0;            ///< deltas flushed (take_delta/view)
  u64 full = 0;               ///< flushed windows that were whole-partition
  u64 nodes = 0;              ///< relabelled nodes across flushed windows
  u64 classes_created = 0;    ///< created classes across flushed windows
  u64 classes_destroyed = 0;  ///< destroyed classes across flushed windows
  u64 classes_resized = 0;    ///< resized classes across flushed windows
};

}  // namespace sfcp::inc
