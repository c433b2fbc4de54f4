#pragma once
// Incremental SFCP: maintain the coarsest f-stable partition of a live
// instance under a stream of edits, without re-solving from scratch on
// every change.
//
//   sfcp::inc::IncrementalSolver inc(inst);          // initial full solve
//   inc.set_b(x, 3);                                 // local repair
//   inc.set_f(y, z);                                 // split/merge cycles
//   inc.apply(edits);                                // batched
//   sfcp::core::PartitionView v = inc.view();        // O(dirty) snapshot
//   inc.save(os);                                    // warm checkpoint
//
// The engine rests on the coinductive characterization of the coarsest
// f-stable refinement Q of B:
//
//   Q(u) = Q(v)  <=>  B(u) = B(v)  and  Q(f(u)) = Q(f(v)),
//
// i.e. a node's class is determined by the infinite label string
// B(v) B(f(v)) B(f^2(v)) ...  An edit at node x only changes the strings of
// nodes whose orbit passes through x — the reverse-reachability closure of
// x (graph::dirty_region).  The repair relabels exactly that dirty set:
//
//   * cycles wholly inside the dirty set are (re)canonicalized — period +
//     minimal rotation of their B-string — and matched against a global
//     map from reduced cycle strings to label blocks, so an edited cycle
//     that becomes equivalent to a cycle in a distant component correctly
//     merges with it;
//   * dirty tree nodes are relabelled in BFS order from x (parents final
//     before children) through a global refcounted signature map
//     (B(v), Q(f(v))) -> label, which realizes the characterization above
//     verbatim.
//
// When the dirty region exceeds the RepairPolicy budget — or an edit lands
// where locality cannot help (e.g. relabelling a node on a giant cycle
// dirties its whole component) — the engine falls back to a full re-solve
// through its embedded core::Solver, whose warm workspaces make the rebuild
// as cheap as a steady-state batch solve.  Correctness therefore never
// depends on the repair path being taken.
//
// Read side: every repair accumulates into a structured inc::RepairDelta —
// the relabelled nodes plus the created/destroyed/resized raw label classes
// (see inc/repair_delta.hpp).  view() flushes that delta and publishes
// exactly its node list as a COW patch on the previous view, so after k
// localized edits a view costs O(dirty) instead of the O(n)
// recanonicalization snapshot() used to pay; take_delta() flushes the
// same record without publishing a view.  Views are snapshots: a reader's
// view is untouched by later edits.
//
// Why consumers may skip "resized" classes: a raw label's identity — its
// (B, Q∘f) signature for tree classes, its reduced cycle string and phase
// for cycle classes — is immutable for the label's whole live span.  A
// label's population can never dip to zero and revive (tree labels re-mint
// through the signature map; a cycle label's phases are repopulated only
// while some live cycle still holds its class entry, which itself keeps the
// populations positive), so live-throughout labels kept their binding and
// only created/destroyed ones carry reconciliation work.
//
// Persistence: save() writes an `sfcp-checkpoint v1` stream (see util/io) —
// the instance, labels and the cycle/signature maps — and load() restores a
// warm engine without re-solving, so a serving process restarts in O(n) IO
// instead of a full solve.
//
// Thread-safety matches core::Solver: one IncrementalSolver per thread
// (views, once obtained, are freely shareable across threads).

#include <iosfwd>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/solver.hpp"
#include "graph/reverse_adjacency.hpp"
#include "inc/edit.hpp"
#include "inc/repair_delta.hpp"
#include "pram/arena.hpp"
#include "pram/execution_context.hpp"
#include "pram/metrics.hpp"

namespace sfcp::inc {

/// Cost model deciding local repair vs. full re-solve.  Two modes:
///
///   * static (default): repair iff the dirty region has at most
///     max(min_dirty_absolute, max_dirty_fraction * n) nodes;
///   * adaptive: the crossover is fitted online from observed per-delta
///     costs — the solver feeds every repair (wall ns per dirty node) and
///     every rebuild (wall ns) into a pram::CostModel, and the budget is
///     the fitted break-even dirty count.  Until the fit has evidence on
///     both sides (the construction solve anchors the rebuild side) the
///     static formula decides.
struct RepairPolicy {
  double max_dirty_fraction = 0.25;
  std::size_t min_dirty_absolute = 64;
  /// apply(edits): a batch of at least batch_rebuild_fraction * n edits is
  /// applied raw and followed by one full re-solve instead of per-edit work.
  double batch_rebuild_fraction = 1.0 / 16.0;
  /// Fit the repair-vs-rebuild crossover online instead of trusting
  /// max_dirty_fraction (see above).
  bool adaptive = false;
  /// EWMA smoothing for the adaptive cost fit.
  double ewma_alpha = 0.25;

  std::size_t dirty_budget(std::size_t n) const {
    const auto frac = static_cast<std::size_t>(max_dirty_fraction * static_cast<double>(n));
    const std::size_t cap = frac > min_dirty_absolute ? frac : min_dirty_absolute;
    return cap < n ? cap : n;
  }
  /// The budget the solver actually uses: the fitted crossover in adaptive
  /// mode (clamped to [min_dirty_absolute, n]), the static formula before
  /// the fit converges or in static mode.
  std::size_t dirty_budget(std::size_t n, const pram::CostModel& fit) const {
    return adaptive ? fit.budget(n, min_dirty_absolute, dirty_budget(n)) : dirty_budget(n);
  }
  std::size_t batch_rebuild_threshold(std::size_t n) const {
    const auto t = static_cast<std::size_t>(batch_rebuild_fraction * static_cast<double>(n));
    return t > 1 ? t : 1;
  }
};

/// Lifetime counters (monotonic; see also the pram::Metrics edit counters,
/// which are charged per edit to the session's metrics sink).
struct EditStats {
  u64 edits = 0;            ///< edits accepted (including no-ops)
  u64 repairs = 0;          ///< edits served by the local repair path
  u64 rebuilds = 0;         ///< edits (or batches) served by a full re-solve
  u64 dirty_nodes = 0;      ///< total nodes relabelled by repairs
  u64 cycles_created = 0;   ///< cycles formed by repairs
  u64 cycles_destroyed = 0; ///< cycles broken by repairs
};

class IncrementalSolver {
 public:
  /// Takes ownership of the instance and solves it once (validates; throws
  /// std::invalid_argument on malformed input).
  explicit IncrementalSolver(graph::Instance inst,
                             core::Options opt = core::Options::parallel(),
                             pram::ExecutionContext ctx = {}, RepairPolicy policy = {});

  /// Seeds a warm engine from an already-computed solve of `inst`: `r` must
  /// be core::solve's result for exactly this instance and `ws` the
  /// workspace that solve left behind (its cycle structure describes r).
  /// No re-solve happens — this is the batched cold-start path, where
  /// core::Solver::solve_batch's consumer constructs one engine per solved
  /// instance on the worker that solved it.  Throws std::invalid_argument
  /// when r's size disagrees with the instance.
  IncrementalSolver(graph::Instance inst, const core::Result& r,
                    const core::SolveWorkspace& ws,
                    core::Options opt = core::Options::parallel(),
                    pram::ExecutionContext ctx = {}, RepairPolicy policy = {});

  const graph::Instance& instance() const noexcept { return inst_; }
  std::size_t size() const noexcept { return inst_.size(); }

  /// Current labels: q(u) == q(v) iff u, v share a block.  Values are dense
  /// only after a rebuild; repairs may retire and mint labels, so use
  /// snapshot() for the canonical form.
  std::span<const u32> labels() const noexcept { return q_; }
  u32 label_of(u32 x) const { return q_.at(x); }
  u32 num_blocks() const noexcept { return distinct_; }

  /// Immutable snapshot of the current partition, stamped with epoch().
  /// Canonical labels are byte-identical to core::solve on the current
  /// instance; all Result counters (cycles, kept/residual tree nodes) are
  /// maintained incrementally and match field-for-field.  Cost is
  /// O(nodes relabelled since the previous view) — NOT O(n) — because each
  /// view is published as a delta on its predecessor; the view itself is
  /// isolated from any edits that follow.
  core::PartitionView view() const;

  /// view() as a classic Result record (copies the canonical labels).
  core::Result snapshot() const;

  /// Monotonic edit clock: bumped by every state-changing edit.  Views carry
  /// the epoch they were taken at.
  u64 epoch() const noexcept { return epoch_; }

  // ---- persistence (sfcp-checkpoint v1, see util/io.hpp) -----------------

  /// Serializes the instance, labels, cycle/signature maps, epoch and edit
  /// stats, so load() can restore a warm engine without re-solving.
  void save(std::ostream& os) const;

  /// Restores an engine from a save()d stream.  Throws std::runtime_error on
  /// malformed, truncated or inconsistent input; the solve configuration
  /// (options/context/policy) is supplied by the caller, not the stream.
  static IncrementalSolver load(std::istream& is, core::Options opt = core::Options::parallel(),
                                pram::ExecutionContext ctx = {}, RepairPolicy policy = {});

  /// load() for dispatchers that already consumed and checked the 8-byte
  /// checkpoint magic (sfcp::load_engine_checkpoint).
  static IncrementalSolver load_body(std::istream& is,
                                     core::Options opt = core::Options::parallel(),
                                     pram::ExecutionContext ctx = {}, RepairPolicy policy = {});

  /// Single edits.  Throw std::invalid_argument on out-of-range arguments;
  /// the partition is fully repaired on return.
  void set_f(u32 x, u32 y);
  void set_b(u32 x, u32 label);

  /// Batched edits, applied in order.  Large batches (RepairPolicy
  /// .batch_rebuild_fraction) short-circuit to raw array updates plus one
  /// full re-solve.  All edits are validated up front, before any state
  /// changes.
  void apply(std::span<const Edit> edits);

  // ---- the repair delta (see inc/repair_delta.hpp) -----------------------

  /// Flushes and returns the delta accumulated since the previous flush
  /// (take_delta or view) — every edit accumulates into it.  Taking the
  /// delta hands the relabelled-node list to the caller, so the solver's
  /// own next view() re-roots instead of patching; a consumer uses either
  /// take_delta() (merge layers) or view() (plain serving), not both.
  RepairDelta take_delta();

  /// Flushes the notification window: the nodes the views published since
  /// the previous take_view_delta() relabelled, or a whole-partition
  /// downgrade when any of them re-rooted (rebuild, restore, construction).
  /// Unlike take_delta(), taking the view delta never disturbs the view
  /// patch chain — it is a read-side tap for change feeds (serve::Server).
  ViewDelta take_view_delta();

  /// Lifetime totals over flushed deltas.
  const DeltaStats& delta_stats() const noexcept { return delta_stats_; }

  /// The observed repair-vs-rebuild cost fit (units = dirty nodes).  Always
  /// maintained, consulted by the policy only in adaptive mode.
  const pram::CostModel& cost_model() const noexcept { return cost_fit_; }

  // ---- raw-state probes ---------------------------------------------------

  /// Exclusive upper bound on raw label values (labels() entries).
  u32 label_bound() const noexcept { return next_label_; }

  /// Solve-shaped counters of the current partition, without building a
  /// view (what view() would stamp on one).
  core::ViewCounters view_counters() const noexcept {
    return core::ViewCounters{static_cast<u32>(cycles_.size()),
                              static_cast<u32>(live_cycle_nodes_), kept_, residual_()};
  }

  const EditStats& stats() const noexcept { return stats_; }
  RepairPolicy& policy() noexcept { return policy_; }
  const RepairPolicy& policy() const noexcept { return policy_; }
  core::Solver& solver() noexcept { return solver_; }

  /// Coarse resident-size estimate: the capacities of the persistent
  /// per-node/per-label arrays plus the instance and map loads.  Used by
  /// size-aware admission (fleet::FleetEngine); not an exact malloc total.
  std::size_t footprint_bytes() const noexcept;

 private:
  struct CycleClass {
    std::vector<u32> labels;  ///< label of phase t, size = period
    u32 refs = 0;             ///< live cycles with this reduced string
  };
  struct CycleRec {
    /// The classes_ key this cycle holds a reference on.  Pointers to
    /// unordered_map keys are stable across rehashes and other erasures, and
    /// destroy_cycle_ dereferences before erasing the pointee.
    const std::vector<u32>* key = nullptr;
    u32 length = 0;
  };
  struct SigRec {
    u32 label = 0;
    u32 refs = 0;
  };

  struct LoadTag {};
  IncrementalSolver(LoadTag, graph::Instance inst, core::Options opt,
                    pram::ExecutionContext ctx, RepairPolicy policy);

  void validate_edit_(const Edit& e) const;
  void apply_one_(const Edit& e);
  void raw_apply_(const Edit& e);
  void rebuild_();
  /// Seeds labels/classes/signatures from a finished solve of inst_ — the
  /// shared tail of rebuild_() and the seeded constructor.
  void seed_from_solve_(const core::Result& r, const core::SolveWorkspace& ws);
  void repair_(u32 x, std::span<const u32> dirty);
  /// Flush impl (delta state is mutable).  classify == false skips
  /// materializing the per-class lists (the view path discards them); the
  /// category counts still reach delta_stats_ either way.
  RepairDelta take_delta_(bool classify) const;
  void note_label_(u32 label, bool live_before);
  void mark_full_delta_();
  void finish_load_();  ///< derives all secondary state after a load()
  u32 residual_() const noexcept {
    return static_cast<u32>(inst_.size() - live_cycle_nodes_ - kept_);
  }
  u32 fresh_label_();
  void pop_inc_(u32 label, bool cycle);
  void pop_dec_(u32 label, bool cycle);
  void sig_remove_(u64 sig);
  u32 sig_assign_(u32 v);  ///< lookup-or-mint label for v's current signature
  void destroy_cycle_(u32 id);

  graph::Instance inst_;
  core::Solver solver_;
  RepairPolicy policy_;
  graph::ReverseAdjacency preds_;

  // The long-lived per-node/per-label arrays draw from the session arena
  // (ctx.arena, null = heap), so a fleet of warm solvers recycles slabs
  // instead of paying per-instance malloc churn.  Scratch buffers and the
  // delta window stay on the heap: they are transient and some are bound to
  // plain std::vector& by graph helpers.
  pram::ArenaAllocator<u32> alloc_;

  pram::avector<u32> q_;
  pram::avector<u64> sig_key_;  ///< signature each node holds in sigs_
  pram::avector<u8> on_cycle_;
  pram::avector<u32> cycle_id_;  ///< live cycle id, kNone for tree nodes

  std::unordered_map<u64, SigRec> sigs_;  ///< pack(B(v), Q(f(v))) -> label
  std::unordered_map<std::vector<u32>, CycleClass, U32VecHash> classes_;
  std::unordered_map<u32, CycleRec> cycles_;
  u32 next_cycle_id_ = 0;

  pram::avector<u32> pop_;        ///< per-label population, indexed by label
  pram::avector<u32> cycle_pop_;  ///< cycle nodes per label (kept/residual accounting)
  u32 next_label_ = 0;
  u32 distinct_ = 0;       ///< labels with pop > 0 (= current block count)
  u64 live_cycle_nodes_ = 0;
  u32 kept_ = 0;  ///< tree nodes sharing a label with a live cycle node

  u64 epoch_ = 0;

  // Delta accumulation: every repair folds its relabelled nodes (deduped
  // via delta_mark_) and per-label population transitions into delta_;
  // take_delta_() classifies the touched labels into created/destroyed/
  // resized and resets the window.  A rebuild marks the window full.  The
  // touch records are label-indexed arrays (not a hash map) because they
  // sit on the per-dirty-node hot path; all three grow with fresh_label_.
  // The fields are mutable because view() — logically const — is a flush
  // point.
  mutable RepairDelta delta_;
  mutable std::vector<u8> delta_mark_;        ///< per node: in delta_.nodes
  mutable std::vector<u32> delta_touched_;    ///< touched labels, touch order
  mutable std::vector<u8> delta_touch_mark_;  ///< per label: in delta_touched_
  mutable std::vector<u8> delta_live_before_; ///< per label: live at first touch
  mutable DeltaStats delta_stats_;

  // View maintenance: the delta's relabelled nodes become the next view's
  // patch; a rebuild (or an externally taken delta) invalidates the chain
  // and forces a fresh root.
  mutable core::PartitionView last_view_;
  mutable u64 last_view_epoch_ = 0;
  mutable bool view_root_stale_ = true;

  // Notification window (take_view_delta): nodes the published views'
  // patches carried; full when any view in the window was a fresh root.
  // Capped at n nodes — past that a full refresh is cheaper to consume.
  mutable std::vector<u32> view_delta_nodes_;
  mutable bool view_delta_full_ = true;

  pram::CostModel cost_fit_;  ///< repair-vs-rebuild fit (units = dirty nodes)

  std::vector<u32> dirty_buf_;
  std::vector<u32> cyc_buf_;
  std::vector<u32> str_buf_;
  EditStats stats_;
};

/// Checkpoint file helpers (open + save()/load() with path-naming errors).
void save_checkpoint_file(const std::string& path, const IncrementalSolver& solver);
IncrementalSolver load_checkpoint_file(const std::string& path,
                                       core::Options opt = core::Options::parallel(),
                                       pram::ExecutionContext ctx = {}, RepairPolicy policy = {});

}  // namespace sfcp::inc
