#pragma once
// fleet::FleetEngine — one apply/view surface multiplexing up to millions of
// small instance-keyed engines (multi-tenant serving).
//
// Three mechanisms make the scale workable:
//
//   * Instance-keyed routing.  Every operation names an InstanceId (u64);
//     an open-addressed id→slot map routes it to that instance's engine.
//     Unknown ids are materialized on demand through the caller-installed
//     factory (set_factory), so a fleet over 1M instances only pays for the
//     ones actually touched.
//
//   * Warm/cold tiering.  Only a bounded working set (FleetConfig::
//     warm_limit slots and/or warm_bytes_limit bytes, size-aware via
//     Engine::footprint_bytes) stays live.  The LRU tail is checkpointed
//     out (`sfcp-checkpoint v1`, or a small instance+epoch cold image for
//     non-checkpointable engines) to memory or to FleetConfig::spill_dir
//     (durably when durable_spill), and faulted back transparently on the
//     next touch.  Because engine views are byte-identical to core::solve,
//     an evict→fault-in round trip reproduces the exact partition bytes.
//
//   * Batched cold-start solving.  A flood of first-touch instances in one
//     apply_batch() funnels into a single core::Solver::solve_batch call;
//     the batch consumer seeds each engine from the solve it just produced
//     (seeded IncrementalSolver / BatchEngine constructors), so the fleet
//     never re-solves what the batch already computed.
//
// Engines draw their persistent arrays from the fleet's shared SlabArena
// (via the pram::ExecutionContext::arena hook) so evict/fault-in churn
// recycles blocks instead of hammering the global heap.
//
// The external contract is single-threaded, like Engine: one caller at a
// time.  Internally the cold-start batch fans out across solver threads,
// and — when a worker pool is installed — apply_batch() fans the WARM path
// too: each distinct instance's edit bucket runs on pool lane
// `slot % width` (so an instance always repairs on the same lane), and
// one epoch barrier (WorkerPool::wait) closes the batch, so the one-caller
// Engine contract holds PER INSTANCE while different tenants repair
// concurrently.  Everything that mutates fleet-wide state — routing-table
// growth, materialization, eviction, LRU maintenance, cold-batch solving —
// stays on the caller lane; the id→slot table and slot storage are
// single-writer/multi-reader (fleet/route_table.hpp), which also makes
// contains() / is_warm() / instance_count() / warm_count() safe to call
// from other threads while a batch is in flight.  Determinism: every
// instance's view and the charged rounds/ops are byte-identical to a
// serial threads=1 apply of the same batch (workers pin nested rounds to
// one PRAM processor; per-lane metrics sinks are merged at the barrier).
//
//   fleet::FleetConfig cfg;
//   cfg.engine = "incremental";
//   cfg.warm_limit = 10'000;
//   fleet::FleetEngine fleet(cfg);
//   fleet.set_factory([](fleet::InstanceId id) { return make_instance(id); });
//   fleet.apply(42, edits);                  // routes, faults in, repairs
//   core::PartitionView v = fleet.view(42);  // byte-identical to core::solve

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine.hpp"
#include "fleet/route_table.hpp"
#include "fleet/slab_arena.hpp"
#include "inc/edit.hpp"

namespace sfcp::fleet {

using InstanceId = u64;

struct FleetConfig {
  /// engines() registry name every instance runs ("incremental" or
  /// "batch").  Both take the batched cold-start path; kinds added to the
  /// registry later construct per instance.
  std::string engine = "incremental";
  core::Options options = core::Options::parallel();
  /// Template execution context for per-instance engines; the fleet injects
  /// its arena into a copy of this (see use_arena).
  pram::ExecutionContext ctx;
  inc::RepairPolicy repair;

  /// Warm-set cap in instances (0 = unbounded).  The LRU tail beyond it is
  /// evicted to the cold tier.
  std::size_t warm_limit = 1024;
  /// Warm-set cap in bytes (0 = unbounded), measured by footprint_bytes().
  /// An instance whose footprint alone exceeds the cap is still admitted
  /// for its operation (a caller may hold a view into it), counted in
  /// FleetStats::oversized_rejects, and reclaimed by the next operation's
  /// eviction sweep — the warm set never holds more than one such slot.
  std::size_t warm_bytes_limit = 0;

  /// Directory for spilled cold images (files `i<id>.ckpt`).  Empty keeps
  /// cold images in memory.  Pre-existing spill files are adopted as cold
  /// instances at construction.
  std::string spill_dir;
  /// fsync spill files through util::atomic_write_file(durable=true).
  bool durable_spill = false;

  /// Hand per-instance engines the shared SlabArena for their persistent
  /// arrays (pram::ExecutionContext::arena).
  bool use_arena = true;
};

/// Counters and gauges over the whole fleet (stats()); also the payload of
/// the fleet-mode STATS wire frame.
struct FleetStats {
  std::size_t instances = 0;   ///< known ids (warm + cold + unborn)
  std::size_t warm = 0;        ///< live engines
  std::size_t cold = 0;        ///< checkpointed-out instances
  std::size_t warm_bytes = 0;  ///< footprint_bytes() total of the warm set
  u64 routes = 0;              ///< id→slot routing lookups (batch entries)
  u64 faults = 0;              ///< cold→warm fault-ins
  u64 evictions = 0;           ///< warm→cold evictions
  u64 cold_batches = 0;        ///< solve_batch calls for cold-start floods
  u64 batched_cold_instances = 0;  ///< instances first-solved inside them
  u64 oversized_rejects = 0;   ///< instances too big for warm_bytes_limit
  u64 edits = 0;               ///< edits applied across the fleet
  u64 views = 0;               ///< views served across the fleet
  std::size_t arena_bytes = 0;   ///< SlabArena live + pooled bytes
  std::size_t arena_blocks = 0;  ///< SlabArena outstanding blocks
};

/// One routed edit — the element type of apply_batch().
struct InstanceEdit {
  InstanceId id = 0;
  inc::Edit edit;
};

class FleetEngine {
 public:
  explicit FleetEngine(FleetConfig cfg = {});

  /// Installs the instance factory consulted when an operation names an id
  /// the fleet has never seen.  Without one, unknown ids throw
  /// std::out_of_range.
  void set_factory(std::function<graph::Instance(InstanceId)> factory);

  /// Registers `inst` under `id` without solving it (tier Unborn); the
  /// first apply/view materializes it — through the batched cold-start
  /// path when it arrives in an apply_batch flood.  Throws
  /// std::invalid_argument when the id already exists or `inst` is invalid.
  void create(InstanceId id, graph::Instance inst);

  // Lock-free observers: safe to call from ANY thread, concurrently with
  // operations on the (single) fleet caller — routing reads go through the
  // single-writer/multi-reader RouteTable and touch only a slot's immutable
  // id and atomic tier.
  bool contains(InstanceId id) const noexcept;
  std::size_t instance_count() const noexcept { return slots_.size(); }
  std::size_t warm_count() const noexcept {
    return warm_count_.load(std::memory_order_relaxed);
  }
  bool is_warm(InstanceId id) const noexcept;

  /// Applies `edits` to instance `id` (routing, fault-in, or factory
  /// materialization as needed) and returns the instance's epoch after the
  /// batch.
  u64 apply(InstanceId id, std::span<const inc::Edit> edits);

  /// Applies a mixed-instance batch: entries are grouped by id (preserving
  /// per-id order), cold instances fault in, and never-solved instances
  /// funnel into one core::Solver::solve_batch cold-start solve.  Warm-set
  /// limits are enforced once, after the whole batch.  With a worker pool
  /// installed, distinct instances' buckets repair concurrently on lane
  /// `slot % width` behind one epoch barrier; footprint/LRU accounting and
  /// eviction still run on the caller lane after the barrier, and results
  /// and charges are identical to the pool-less serial path.
  void apply_batch(std::span<const InstanceEdit> batch);

  /// Immutable snapshot of instance `id`'s partition — byte-identical to
  /// core::solve on its current instance, whether the engine stayed warm or
  /// round-tripped through the cold tier.  Valid until the next operation on
  /// the fleet (any operation may evict the backing engine).
  core::PartitionView view(InstanceId id);

  /// The instance's edit clock: warm engines answer directly, cold slots
  /// answer from the epoch recorded at eviction (spill files adopted at
  /// construction fault in to find out), unknown/unborn ids are 0.
  u64 epoch(InstanceId id);

  /// Node count of instance `id`, materializing the slot (factory) if it is
  /// new — the cheap precondition front ends need to validate edits before
  /// journaling them.  Spill files adopted at construction fault in to learn
  /// their size.  Throws like apply() for unknown ids without a factory.
  std::size_t instance_size(InstanceId id);

  /// Checkpoints instance `id` out to the cold tier now.  Returns false when
  /// the id is unknown or not warm.
  bool evict(InstanceId id);

  FleetStats stats() const;
  const FleetConfig& config() const noexcept { return cfg_; }
  SlabArena& arena() noexcept { return arena_; }

  /// Installs (null: removes) a session worker pool on the fleet's own
  /// batch solver, the config context every later-materialized engine
  /// copies, and all currently-warm engines — so cold-batch floods fan out
  /// on persistent workers and warm applies reuse them too.  The pool must
  /// outlive the fleet (or be uninstalled first).
  void install_pool(pram::WorkerPool* pool);

 private:
  enum class Tier : unsigned char { Unborn, Cold, Warm };

  /// One instance's bookkeeping.  `id` is immutable once the slot is
  /// published through the route table and `tier` is atomic — those two are
  /// the ONLY fields the lock-free observers may read; everything else is
  /// caller-lane state (pool tasks additionally read `engine` for their own
  /// group, which the caller published before the fan and does not mutate
  /// until after the barrier).
  struct Slot {
    InstanceId id = 0;
    std::atomic<Tier> tier{Tier::Unborn};
    std::unique_ptr<Engine> engine;  ///< warm only
    graph::Instance pending;         ///< unborn only: instance awaiting first solve
    std::string cold_image;          ///< cold, in-memory spill mode
    bool on_disk = false;            ///< a spill file exists for this id
    u64 epoch = 0;                   ///< edit clock recorded at eviction
    std::size_t nodes = 0;           ///< instance size (0 = unknown, adopted spill)
    std::size_t bytes = 0;           ///< footprint_bytes() while warm
    u32 lru_prev = 0, lru_next = 0;  ///< intrusive warm LRU links

    Tier tier_now() const noexcept { return tier.load(std::memory_order_relaxed); }
    void set_tier(Tier t) noexcept { tier.store(t, std::memory_order_relaxed); }
  };

  static constexpr u32 kNil = RouteTable::kNil;
  static constexpr u64 kEpochUnknown = ~u64{0};

  pram::ExecutionContext instance_ctx_();
  u32 find_(InstanceId id) const noexcept;
  u32 ensure_slot_(InstanceId id);
  /// Appends a fresh slot for `id` and publishes it through the route
  /// table; the caller fills the remaining fields afterwards (readers can
  /// already see the slot, but only as a default Unborn entry).
  u32 add_slot_(InstanceId id);

  void lru_unlink_(u32 si) noexcept;
  void lru_push_front_(u32 si) noexcept;
  void lru_touch_(u32 si) noexcept;

  /// Installs a freshly built engine into an unborn/cold slot and accounts
  /// it into the warm tier.
  void admit_(u32 si, std::unique_ptr<Engine> engine);
  /// First-solves never-run instances, batched through solve_batch for
  /// incremental/batch engine kinds.  `insts` holds the pending instances
  /// moved out of the slots, index-aligned with `slot_idx`.
  void materialize_batch_(std::span<const u32> slot_idx,
                          std::vector<graph::Instance>&& insts);
  void fault_in_(u32 si);
  void wake_(u32 si);  ///< cold → fault_in_, unborn → materialize (single)
  void evict_slot_(u32 si);
  /// Refreshes the slot's footprint accounting and marks it most recent.
  void touch_after_op_(u32 si);
  /// Evicts from the LRU tail until the warm set fits the configured caps.
  /// `pinned` (the slot the current operation touched — a caller may hold a
  /// view into it) is never evicted; when it alone busts the byte cap it is
  /// counted as oversized and left for the next sweep.
  void enforce_limits_(u32 pinned);
  std::string spill_path_(InstanceId id) const;

  /// Grows/resets the per-lane metrics sinks for a `width`-lane warm fan.
  void bind_lane_metrics_(int width);
  /// Adds every lane sink's totals into `into` (the session sink), in lane
  /// order, after the epoch barrier.
  void merge_lane_metrics_(int width, pram::Metrics& into) noexcept;

  FleetConfig cfg_;
  // Declared before the slots so it outlives every engine drawing from it.
  SlabArena arena_;
  core::Solver solver_;
  std::function<graph::Instance(InstanceId)> factory_;

  StableSlots<Slot> slots_;  ///< append-only; slot references are stable
  RouteTable table_;         ///< id→slot, lock-free reads, caller-lane writes
  std::atomic<std::size_t> warm_count_{0};
  std::size_t warm_bytes_ = 0;
  std::size_t cold_count_ = 0;
  u32 lru_head_ = kNil, lru_tail_ = kNil;
  FleetStats stats_;
  /// Per-lane warm-fan metrics scratch (index = slot % width): engines
  /// charge their lane's sink during the fan so the session sink's cache
  /// line is not ping-ponged; merged into the session sink at the barrier.
  std::vector<std::unique_ptr<pram::Metrics>> lane_metrics_;
};

}  // namespace sfcp::fleet
