#pragma once
// Work/depth accounting: the reproduction's stand-in for the paper's
// "operations" measure.
//
// Every algorithm in the library charges its work to the currently installed
// Metrics sink (if any).  Charging happens in bulk (once per parallel loop,
// not once per element) so instrumentation does not distort wall-clock
// measurements.  `rounds` counts synchronous PRAM rounds (parallel-loop
// barriers), the analogue of parallel time.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace sfcp::pram {

/// Online EWMA fit of the two sides of an incremental-vs-full crossover
/// (repair-vs-rebuild for inc::RepairPolicy).  The engine feeds it one
/// observation per repair delta — cost of the incremental path per dirty
/// unit, or cost of one full rebuild — and the adaptive policy reads the
/// fitted crossover back as its dirty budget.  Costs are wall-clock
/// nanoseconds (what a serving loop actually pays); the totals are also
/// charged to the Metrics sink so sessions can audit the fit.
struct CostModel {
  double unit_cost = 0.0;  ///< EWMA cost per dirty unit on the incremental path
  double full_cost = 0.0;  ///< EWMA cost of one full rebuild
  std::uint64_t unit_samples = 0;
  std::uint64_t full_samples = 0;

  void observe_unit(double cost, std::uint64_t units, double alpha) noexcept {
    if (units == 0) return;
    const double per = cost / static_cast<double>(units);
    unit_cost = unit_samples == 0 ? per : alpha * per + (1.0 - alpha) * unit_cost;
    ++unit_samples;
  }
  void observe_full(double cost, double alpha) noexcept {
    full_cost = full_samples == 0 ? cost : alpha * cost + (1.0 - alpha) * full_cost;
    ++full_samples;
  }

  /// Enough evidence on both sides to trust crossover().  A handful of
  /// incremental samples smooths scheduler noise; one full rebuild (e.g.
  /// the engine's construction solve) anchors the other side.
  bool fitted() const noexcept {
    return unit_samples >= 8 && full_samples >= 1 && unit_cost > 0.0;
  }

  /// Estimated dirty-unit count at which the incremental path costs as much
  /// as one full rebuild (0 when unfitted).
  double crossover() const noexcept {
    return unit_cost > 0.0 ? full_cost / unit_cost : 0.0;
  }

  /// The fitted crossover as a policy budget: clamped to [min_absolute, n],
  /// `fallback` while the fit has not converged (inc::RepairPolicy's
  /// adaptive budget).
  std::size_t budget(std::size_t n, std::size_t min_absolute,
                     std::size_t fallback) const noexcept {
    if (!fitted()) return fallback;
    const double cross = crossover();
    std::size_t cap = n;  // a crossover at or beyond n can never be exceeded
    if (cross < static_cast<double>(n)) {
      cap = cross > 0.0 ? static_cast<std::size_t>(cross) : std::size_t{0};
    }
    if (cap < min_absolute) cap = min_absolute;
    return cap < n ? cap : n;
  }
};

/// Plain-value copy of a Metrics sink (atomics relaxed-loaded once); the
/// form batched results hand back per instance.
struct MetricsSnapshot {
  std::uint64_t operations = 0;
  std::uint64_t rounds = 0;
  std::uint64_t sort_ops = 0;
  std::uint64_t crcw_writes = 0;
  std::uint64_t edit_repairs = 0;
  std::uint64_t edit_rebuilds = 0;
  std::uint64_t edit_dirty = 0;
  std::uint64_t edit_repair_ns = 0;
  std::uint64_t edit_rebuild_ns = 0;
  std::uint64_t view_patched = 0;
  std::uint64_t view_rebuilt = 0;
};

/// Aggregate work/depth counters for one measured region.
struct Metrics {
  std::atomic<std::uint64_t> operations{0};  ///< total work (PRAM operations)
  std::atomic<std::uint64_t> rounds{0};      ///< synchronous parallel rounds
  std::atomic<std::uint64_t> sort_ops{0};    ///< work spent inside integer sorting
  std::atomic<std::uint64_t> crcw_writes{0}; ///< arbitrary-CRCW winner writes
  // Edit-phase counters (the incremental engine, inc/incremental_solver):
  std::atomic<std::uint64_t> edit_repairs{0};   ///< edits served by local repair
  std::atomic<std::uint64_t> edit_rebuilds{0};  ///< edits served by full re-solve
  std::atomic<std::uint64_t> edit_dirty{0};     ///< nodes relabelled across edits
  /// Wall ns spent in repairs, estimated from 1-in-8 sampling (each sample
  /// is charged x8), so it stays comparable to the fully-timed rebuild ns.
  std::atomic<std::uint64_t> edit_repair_ns{0};
  std::atomic<std::uint64_t> edit_rebuild_ns{0};  ///< wall ns spent in rebuilds
  // View counters (core::PartitionView production):
  std::atomic<std::uint64_t> view_patched{0};  ///< nodes carried in view patch deltas
  std::atomic<std::uint64_t> view_rebuilt{0};  ///< nodes copied into fresh view roots

  void reset() noexcept {
    operations.store(0, std::memory_order_relaxed);
    rounds.store(0, std::memory_order_relaxed);
    sort_ops.store(0, std::memory_order_relaxed);
    crcw_writes.store(0, std::memory_order_relaxed);
    edit_repairs.store(0, std::memory_order_relaxed);
    edit_rebuilds.store(0, std::memory_order_relaxed);
    edit_dirty.store(0, std::memory_order_relaxed);
    edit_repair_ns.store(0, std::memory_order_relaxed);
    edit_rebuild_ns.store(0, std::memory_order_relaxed);
    view_patched.store(0, std::memory_order_relaxed);
    view_rebuilt.store(0, std::memory_order_relaxed);
  }

  /// Adds a snapshot's totals into this sink — how per-lane scratch sinks
  /// (fleet warm fan) merge into the session sink at a barrier.
  void add(const MetricsSnapshot& s) noexcept {
    operations.fetch_add(s.operations, std::memory_order_relaxed);
    rounds.fetch_add(s.rounds, std::memory_order_relaxed);
    sort_ops.fetch_add(s.sort_ops, std::memory_order_relaxed);
    crcw_writes.fetch_add(s.crcw_writes, std::memory_order_relaxed);
    edit_repairs.fetch_add(s.edit_repairs, std::memory_order_relaxed);
    edit_rebuilds.fetch_add(s.edit_rebuilds, std::memory_order_relaxed);
    edit_dirty.fetch_add(s.edit_dirty, std::memory_order_relaxed);
    edit_repair_ns.fetch_add(s.edit_repair_ns, std::memory_order_relaxed);
    edit_rebuild_ns.fetch_add(s.edit_rebuild_ns, std::memory_order_relaxed);
    view_patched.fetch_add(s.view_patched, std::memory_order_relaxed);
    view_rebuilt.fetch_add(s.view_rebuilt, std::memory_order_relaxed);
  }

  std::uint64_t ops() const noexcept { return operations.load(std::memory_order_relaxed); }
  std::uint64_t round_count() const noexcept { return rounds.load(std::memory_order_relaxed); }

  MetricsSnapshot snapshot() const noexcept {
    return MetricsSnapshot{operations.load(std::memory_order_relaxed),
                           rounds.load(std::memory_order_relaxed),
                           sort_ops.load(std::memory_order_relaxed),
                           crcw_writes.load(std::memory_order_relaxed),
                           edit_repairs.load(std::memory_order_relaxed),
                           edit_rebuilds.load(std::memory_order_relaxed),
                           edit_dirty.load(std::memory_order_relaxed),
                           edit_repair_ns.load(std::memory_order_relaxed),
                           edit_rebuild_ns.load(std::memory_order_relaxed),
                           view_patched.load(std::memory_order_relaxed),
                           view_rebuilt.load(std::memory_order_relaxed)};
  }

  std::string summary() const;
};

/// The sink charges go to: the thread-installed ExecutionContext's sink when
/// a context is active (null field = don't count), else the process-wide
/// ScopedMetrics sink; null means "don't count".
Metrics* current_metrics() noexcept;

/// Installs `m` as the process-wide default sink for the lifetime of the
/// guard (thread-shared; an active ExecutionContext takes precedence).
class ScopedMetrics {
 public:
  explicit ScopedMetrics(Metrics& m) noexcept;
  ~ScopedMetrics();
  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

 private:
  Metrics* saved_;
};

/// Charges `n` units of work to the current sink (no-op when none).
inline void charge(std::uint64_t n) noexcept {
  if (Metrics* m = current_metrics()) {
    m->operations.fetch_add(n, std::memory_order_relaxed);
  }
}

/// Charges one synchronous round plus `work` operations.
inline void charge_round(std::uint64_t work) noexcept {
  if (Metrics* m = current_metrics()) {
    m->rounds.fetch_add(1, std::memory_order_relaxed);
    m->operations.fetch_add(work, std::memory_order_relaxed);
  }
}

/// Charges work performed inside integer sorting (tracked separately because
/// the paper attributes its only super-linear term to sorting).
inline void charge_sort(std::uint64_t n) noexcept {
  if (Metrics* m = current_metrics()) {
    m->operations.fetch_add(n, std::memory_order_relaxed);
    m->sort_ops.fetch_add(n, std::memory_order_relaxed);
  }
}

inline void charge_crcw(std::uint64_t n) noexcept {
  if (Metrics* m = current_metrics()) {
    m->crcw_writes.fetch_add(n, std::memory_order_relaxed);
  }
}

/// Charges one edit to the current sink: `repaired` selects the repair vs.
/// rebuild counter, `dirty` is the number of nodes the edit touched, `ns`
/// the observed wall-clock cost (0 = not measured) — the raw observations
/// adaptive policies fit their CostModel from.
inline void charge_edit(bool repaired, std::uint64_t dirty, std::uint64_t ns = 0) noexcept {
  if (Metrics* m = current_metrics()) {
    (repaired ? m->edit_repairs : m->edit_rebuilds).fetch_add(1, std::memory_order_relaxed);
    m->edit_dirty.fetch_add(dirty, std::memory_order_relaxed);
    if (ns != 0) {
      (repaired ? m->edit_repair_ns : m->edit_rebuild_ns)
          .fetch_add(ns, std::memory_order_relaxed);
    }
  }
}

/// Charges one view production: `patched` selects the incremental-delta vs.
/// fresh-root counter, `nodes` is the delta size (or n for a root).  This is
/// what the O(dirty) view tests and bench_snapshot assert against.
inline void charge_view(bool patched, std::uint64_t nodes) noexcept {
  if (Metrics* m = current_metrics()) {
    (patched ? m->view_patched : m->view_rebuilt).fetch_add(nodes, std::memory_order_relaxed);
  }
}

}  // namespace sfcp::pram
