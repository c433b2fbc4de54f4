#pragma once
// ShardedEngine — component-parallel serving: the node space split across k
// shards, each owning a warm inc::IncrementalSolver, behind the same
// sfcp::Engine surface as "batch" and "incremental".
//
// The coarsest-partition problem is embarrassingly component-parallel:
// Q(v) is a function of v's infinite label string B(v) B(f(v)) ..., which
// never leaves v's weakly-connected component — so edits inside one
// component cannot change class membership in another.  The engine
// therefore partitions components across shards (size-balanced, largest
// first), routes apply() edits to shards by node id, and repairs dirty
// shards concurrently with pram::parallel_for under the session's
// ExecutionContext:
//
//   shard::ShardedEngine eng(std::move(inst));       // k = 8 shards
//   eng.apply(edits);                                // shard-parallel repair
//   sfcp::core::PartitionView v = eng.view();        // one global partition
//
// What locality cannot give for free is the cross-shard coupling: a cycle
// in shard 2 whose reduced B-string equals a cycle's in shard 5 is ONE
// global class, and tree classes chaining onto them must merge too.  The
// merge layer reconciles per-shard partitions at class granularity: each
// live raw label of a shard solver holds one refcounted reference into a
// global map — cycle classes keyed by their reduced B-string (smallest
// period + minimal rotation), tree classes by their (B, Q∘f) signature
// resolved in dependency order — the same coinductive characterization the
// incremental solver applies per node, lifted to classes.  Reconciliation
// is lazy, per-shard and DELTA-DRIVEN: view() flushes each dirty shard's
// inc::RepairDelta and updates only the classes the delta names as created
// or destroyed (resized classes provably keep their identity, see
// inc/repair_delta.hpp), so merge maintenance costs O(dirty classes) per
// view — not O(dirty shards), let alone O(n) — and the result is published
// as a COW patch carrying exactly the delta's relabelled nodes.  Canonical
// labels stay byte-identical to core::solve on the whole instance while
// untouched classes cost nothing; a shard whose delta went through a
// rebuild (or a freshly migrated/restored shard) falls back to a full
// requotient of that one shard.
//
// Rebalancing: an edit set_f(x, y) with x and y in different shards drags
// x's whole component into y's shard.  Under the ReshardPolicy cost model
// (mirroring inc::RepairPolicy) the engine either migrates that component
// (rebuilding just the two affected shards) or, when the component is too
// large or the shards drift out of balance, falls back to a full re-shard.
// Either way reader-held views are immutable snapshots — migration never
// touches them.
//
// Persistence: checkpoints use the `sfcp-checkpoint v1` family with the
// sharded magic (util/io.hpp): shard assignments plus one embedded
// per-shard solver checkpoint each, so a serving process restarts warm
// with the same shard layout.  sfcp::load_engine_checkpoint() autodetects
// plain vs. sharded streams.
//
// Thread-safety matches inc::IncrementalSolver: one ShardedEngine per
// thread; views, once obtained, are freely shareable.

#include <iosfwd>
#include <memory>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "engine.hpp"
#include "inc/incremental_solver.hpp"

namespace sfcp::shard {

/// Cost model deciding component migration vs. full re-shard — the
/// shard-level sibling of inc::RepairPolicy, with the same two modes:
/// static (migrate iff the component fits the fraction budget) or adaptive
/// (the migrate-vs-reshard crossover is fitted online from observed costs —
/// wall ns per migrated node vs. wall ns per full re-shard — in a
/// pram::CostModel; the construction shard pass anchors the re-shard side).
struct ReshardPolicy {
  /// A cross-shard edit migrates the affected component iff it has at most
  /// max(min_migrate_absolute, max_migrate_fraction * n) nodes.
  double max_migrate_fraction = 0.25;
  std::size_t min_migrate_absolute = 64;
  /// After a migration, re-shard when the largest shard exceeds
  /// max_imbalance times the mean shard size.
  double max_imbalance = 4.0;
  /// Fit the migrate-vs-reshard crossover online instead of trusting
  /// max_migrate_fraction.
  bool adaptive = false;
  /// EWMA smoothing for the adaptive cost fit.
  double ewma_alpha = 0.25;

  std::size_t migrate_budget(std::size_t n) const {
    const auto frac = static_cast<std::size_t>(max_migrate_fraction * static_cast<double>(n));
    const std::size_t cap = frac > min_migrate_absolute ? frac : min_migrate_absolute;
    return cap < n ? cap : n;
  }
  /// The budget the engine actually uses: the fitted crossover in adaptive
  /// mode (clamped to [min_migrate_absolute, n]), else the static formula.
  std::size_t migrate_budget(std::size_t n, const pram::CostModel& fit) const {
    return adaptive ? fit.budget(n, min_migrate_absolute, migrate_budget(n))
                    : migrate_budget(n);
  }
  bool balanced(std::size_t largest, std::size_t n, std::size_t k) const {
    if (k <= 1 || n == 0) return true;
    return static_cast<double>(largest) * static_cast<double>(k) <=
           max_imbalance * static_cast<double>(n);
  }
};

struct ShardOptions {
  std::size_t shards = 8;     ///< shard count (0 is treated as 1; empty shards are fine)
  ReshardPolicy reshard{};
  inc::RepairPolicy repair{}; ///< per-shard solver repair policy
};

/// Lifetime counters (monotonic), mirroring inc::EditStats one level up.
struct ShardStats {
  u64 cross_shard_edits = 0; ///< set_f edits that rewired f across shards
  u64 migrations = 0;        ///< components moved between two shards
  u64 reshards = 0;          ///< full re-shards (cost-model fallback)
  u64 shard_merges = 0;      ///< per-shard reconciliations performed by view()
  u64 merged_views = 0;      ///< global views published
  // O(dirty classes) accounting — what the per-class merge actually paid:
  u64 full_merges = 0;            ///< reconciliations that requotiented a whole shard
  u64 merge_touched_classes = 0;  ///< classes processed by per-class reconciliation
  u64 merge_touched_nodes = 0;    ///< nodes carried in per-class merge deltas
};

class ShardedEngine final : public Engine {
 public:
  /// Takes ownership of the instance, partitions its components across
  /// sopt.shards shards and solves each once (validates; throws
  /// std::invalid_argument on malformed input).
  explicit ShardedEngine(graph::Instance inst, core::Options opt = core::Options::parallel(),
                         pram::ExecutionContext ctx = {}, ShardOptions sopt = {});

  std::string_view kind() const noexcept override { return "sharded"; }
  const graph::Instance& instance() const noexcept override { return inst_; }
  u64 epoch() const noexcept override { return epoch_; }

  /// One global partition over all shards, canonical labels byte-identical
  /// to core::solve on the current instance.  Flushes the repair deltas of
  /// the shards edited since the previous view, updates the global merge
  /// maps per created/destroyed class, and publishes the result as a patch
  /// carrying exactly the deltas' relabelled nodes — O(dirty classes); the
  /// view itself is an immutable snapshot isolated from later edits and
  /// migrations.
  core::PartitionView view() override;

  /// Applies edits in order: intra-shard runs fan out across shards in
  /// parallel; a cross-shard set_f triggers component migration or a full
  /// re-shard per the ReshardPolicy.  All edits are validated up front.
  void apply(std::span<const inc::Edit> edits) override;

  bool checkpointable() const noexcept override { return true; }

  /// Writes an `sfcp-checkpoint v1` stream with the sharded magic: the
  /// shard assignment plus each shard solver's embedded checkpoint.
  bool save_checkpoint(std::ostream& os) const override;

  /// Restores an engine from a save_checkpoint()ed stream.  The shard
  /// COUNT and assignment come from the stream; sopt supplies only the
  /// policies (sopt.shards is ignored), matching IncrementalSolver::load's
  /// caller-owns-the-configuration contract.  Throws std::runtime_error on
  /// malformed, truncated or inconsistent input.
  static std::unique_ptr<ShardedEngine> load(std::istream& is,
                                             core::Options opt = core::Options::parallel(),
                                             pram::ExecutionContext ctx = {},
                                             ShardOptions sopt = {});

  /// load() for dispatchers that already consumed and checked the 8-byte
  /// sharded magic (sfcp::load_engine_checkpoint).
  static std::unique_ptr<ShardedEngine> load_body(std::istream& is,
                                                  core::Options opt = core::Options::parallel(),
                                                  pram::ExecutionContext ctx = {},
                                                  ShardOptions sopt = {});

  // ---- introspection (tests, benches, serving stats) ----------------------

  std::size_t shard_count() const noexcept { return shards_.size(); }
  /// Shard currently owning node x.  Throws std::out_of_range.
  u32 shard_of(u32 x) const;
  std::size_t shard_size(std::size_t s) const { return shards_.at(s).nodes.size(); }
  const inc::IncrementalSolver& shard_solver(std::size_t s) const { return *shards_.at(s).solver; }
  const ShardStats& stats() const noexcept { return stats_; }
  ReshardPolicy& reshard_policy() noexcept { return reshard_; }
  /// The observed migrate-vs-reshard cost fit (units = migrated nodes).
  const pram::CostModel& reshard_fit() const noexcept { return reshard_fit_; }

  EngineStats serving_stats() const override;

  /// Sum of the shard solvers' estimates plus a coarse per-node merge-map
  /// overhead (assignment stakes + global label maps).
  std::size_t footprint_bytes() const noexcept override {
    std::size_t bytes = size() * 24;
    for (const ShardState& s : shards_) {
      if (s.solver) bytes += s.solver->footprint_bytes();
    }
    return bytes;
  }

  /// Notification window across the global views published since the last
  /// take (inc::ViewDelta semantics: relabelled global nodes, or a
  /// whole-partition downgrade when any view re-rooted).
  inc::ViewDelta take_view_delta() override;

  /// Installs the session worker pool on the engine context AND every warm
  /// shard solver, so dirty-shard repairs enqueue onto its persistent
  /// workers (one SPSC lane per `shard % pool->width()`) instead of the
  /// calling thread's default pool.  Shards built later (reshard,
  /// migration, load) inherit it via ctx_.
  void install_pool(pram::WorkerPool* pool) override;

  /// Rebinds the work/depth sink on the engine context and every warm shard
  /// solver (same copy-at-construction rationale as install_pool).
  void set_metrics(pram::Metrics* m) override;

 private:
  /// One live raw local label's stake in the global merge maps.
  struct Assign {
    u32 global = kNone;  ///< global raw label (kNone = unassigned)
    u8 kind = 0;         ///< 0 unassigned, 1 cycle class, 2 signature
    const std::vector<u32>* ckey = nullptr;  ///< kind 1: key held in gclasses_
    u64 sig = 0;                             ///< kind 2: key held in gsigs_
  };
  struct ShardState {
    std::vector<u32> nodes;  ///< local id -> global id, strictly ascending
    std::unique_ptr<inc::IncrementalSolver> solver;
    u64 seen_epoch = 0;  ///< solver epoch already folded into the global clock
    bool dirty = true;   ///< needs reconciliation before the next merged view
    bool full = true;    ///< next reconciliation must requotient from scratch
    core::ViewCounters counters;    ///< solver counters at the last reconcile
    std::vector<Assign> label_global;  ///< indexed by local raw label
  };
  struct GlobalCycleClass {
    std::vector<u32> labels;  ///< global label of phase t, size = period
    u32 refs = 0;             ///< local labels holding this reduced string
  };
  struct GlobalSig {
    u32 label = 0;
    u32 refs = 0;
  };
  using GlobalCycleMap = std::unordered_map<std::vector<u32>, GlobalCycleClass, U32VecHash>;
  /// Last gclasses_ entry acquire_cycle_ resolved, keyed by the solver-side
  /// key's data pointer: the p phase labels of one created cycle class
  /// probe the same key, so consecutive acquisitions skip the key copy and
  /// hash (O(p) instead of O(p^2) per created class).  Holds a pointer to
  /// the entry, not an iterator — rehashes invalidate iterators but never
  /// entry addresses, and no erase can run between acquisitions (releases
  /// happen strictly after all acquires in a reconcile).
  struct CycleCache {
    const u32* key_data = nullptr;
    GlobalCycleMap::value_type* entry = nullptr;
  };
  struct LoadTag {};

  ShardedEngine(LoadTag, core::Options opt, pram::ExecutionContext ctx, ShardOptions sopt);

  bool cross_shard_(const inc::Edit& e) const {
    return e.kind == inc::Edit::Kind::SetF && shard_of_[e.node] != shard_of_[e.value];
  }
  void apply_segment_(std::span<const inc::Edit> seg);
  void apply_cross_shard_(const inc::Edit& e);
  void reshard_all_();
  void rebuild_shard_(std::size_t s);
  /// Flushes shard s's delta, updates the merge maps (per-class, or a full
  /// requotient when owed), and — when collect_patch — appends the shard's
  /// contribution to the next view's patch.
  void reconcile_shard_(std::size_t s, bool collect_patch, std::vector<u32>& patch_nodes,
                        std::vector<u32>& patch_labels);
  /// Per-class map update from one repair delta; returns false (no partial
  /// state left behind beyond acquired refs, which requotient releases) if
  /// an invariant does not hold and the shard needs a full requotient.
  bool apply_label_delta_(std::size_t s, const inc::RepairDelta& d);
  /// Rebuilds shard s's label_global from scratch (acquire-new before
  /// release-old, so classes shared with the previous assignment keep their
  /// global labels).
  void requotient_full_(std::size_t s);
  void acquire_cycle_(const inc::IncrementalSolver& sol, u32 rep, u32 local_label,
                      Assign& slot, CycleCache& cache);
  void acquire_sig_(u32 b_value, u32 f_global, Assign& slot);
  void release_assign_(Assign& a);
  void reset_global_maps_();
  u32 fresh_global_() {
    ++live_globals_;
    return next_global_++;
  }

  graph::Instance inst_;  ///< the global instance, kept current under edits
  core::Options opt_;
  pram::ExecutionContext ctx_;
  inc::RepairPolicy repair_;
  ReshardPolicy reshard_;

  std::vector<ShardState> shards_;
  std::vector<u32> shard_of_;  ///< per global node
  std::vector<u32> local_of_;  ///< per global node: index within its shard

  // Global class-reconciliation maps (class-granular analogues of the
  // incremental solver's per-node maps):
  GlobalCycleMap gclasses_;
  std::unordered_map<u64, GlobalSig> gsigs_;
  u32 next_global_ = 0;   ///< fresh-label high-water mark (raw_bound of views)
  u32 live_globals_ = 0;  ///< live distinct global labels (= num_classes)

  u64 epoch_ = 0;
  core::PartitionView last_view_;
  bool root_stale_ = true;

  // Notification window (take_view_delta): global nodes the published
  // views' patches carried; full when any of them was a fresh root.
  std::vector<u32> view_delta_nodes_;
  bool view_delta_full_ = true;

  pram::CostModel reshard_fit_;  ///< migrate-vs-reshard fit (units = moved nodes)
  // Migrations and reshards replace shard solvers; their lifetime counters
  // are absorbed here first so serving_stats() never loses history.
  inc::EditStats retired_edits_;
  inc::DeltaStats retired_deltas_;

  // Reused buffers (apply fan-out + reconciliation scratch).
  std::vector<std::vector<inc::Edit>> bucket_buf_;
  std::vector<u32> active_buf_;
  std::vector<std::size_t> dirty_buf_;
  std::vector<u32> rep_buf_, chain_buf_, patch_nodes_buf_, patch_labels_buf_;
  ShardStats stats_;
};

}  // namespace sfcp::shard
