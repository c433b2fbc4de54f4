#pragma once
// sfcp::Engine — one polymorphic serving surface over the two ways of
// keeping a partition current under edits:
//
//   * BatchEngine        — core::Solver re-solves lazily; cheapest when
//                          edits arrive in large bursts between reads.
//   * IncrementalEngine  — inc::IncrementalSolver repairs per edit; cheapest
//                          when reads interleave with localized edits.
//
// Both speak the same protocol: apply() edits, view() the current partition
// as an immutable core::PartitionView, epoch() as the version clock.  Front
// ends (sfcp_cli, incremental_server, benches, tests) program against
// Engine and pick an implementation by name through sfcp::engines() — the
// engine-level sibling of the strategy registry sfcp::registry():
//
//   auto engine = sfcp::engines().make("incremental", std::move(inst),
//                                      sfcp::registry().at("parallel"), ctx);
//   engine->set_b(x, 3);
//   core::PartitionView v = engine->view();   // isolated from later edits
//
// Engines with warm persistent state also checkpoint: save_checkpoint()
// writes an `sfcp-checkpoint v1` stream (util/io.hpp) and
// load_incremental_engine() restores one.

#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/registry.hpp"
#include "core/solver.hpp"
#include "inc/incremental_solver.hpp"
#include "prof/profile.hpp"

namespace sfcp {

/// Delta/policy statistics aggregated across the serving stack — the
/// metrics surface front ends (incremental_server `stats`, sfcp_cli) read.
/// Every layer fills the fields it owns and leaves the rest zero: a
/// BatchEngine only counts edits, an IncrementalEngine adds repair deltas
/// and the repair-policy fit.
struct EngineStats {
  inc::EditStats edits;      ///< edit outcomes
  inc::DeltaStats deltas;    ///< flushed repair deltas
  bool adaptive_repair = false;   ///< repair policy runs in adaptive mode
  pram::CostModel repair_fit{};   ///< repair-vs-rebuild fit

  /// Merged phase-profile snapshot of the session profiler at the time of
  /// the stats call (prof/profile.hpp).  Empty unless the build has
  /// SFCP_PROFILE=ON and a profiler is installed — the STATS wire frame
  /// only carries it when non-empty, so old clients are unaffected.
  prof::ProfileTree profile;

  /// Mean dirty classes a repair delta touched (0 when no windows flushed).
  double dirty_classes_per_window() const noexcept {
    const u64 w = deltas.windows > deltas.full ? deltas.windows - deltas.full : 0;
    if (w == 0) return 0.0;
    return static_cast<double>(deltas.classes_created + deltas.classes_destroyed +
                               deltas.classes_resized) /
           static_cast<double>(w);
  }
};

class Engine {
 public:
  virtual ~Engine() = default;

  /// Registry name of the implementation ("batch", "incremental", ...).
  virtual std::string_view kind() const noexcept = 0;

  virtual const graph::Instance& instance() const noexcept = 0;
  std::size_t size() const noexcept { return instance().size(); }

  /// Monotonic edit clock; views are stamped with it.
  virtual u64 epoch() const noexcept = 0;

  /// Immutable snapshot of the current partition (canonical labels,
  /// byte-identical to core::solve on the current instance), isolated from
  /// any edits applied afterwards.
  virtual core::PartitionView view() = 0;

  /// Applies edits in order.  All edits are validated up front (throws
  /// std::invalid_argument naming the offending edit before any state
  /// changes).
  virtual void apply(std::span<const inc::Edit> edits) = 0;

  void set_f(u32 x, u32 y) {
    const inc::Edit e = inc::Edit::set_f(x, y);
    apply({&e, 1});
  }
  void set_b(u32 x, u32 label) {
    const inc::Edit e = inc::Edit::set_b(x, label);
    apply({&e, 1});
  }

  /// Whether this engine keeps warm restorable state — i.e. whether
  /// save_checkpoint() will write anything.  Lets callers probe before
  /// opening (and truncating) an output file.
  virtual bool checkpointable() const noexcept { return false; }

  /// Writes an `sfcp-checkpoint v1` stream when checkpointable(); returns
  /// false (writing nothing) when not.
  virtual bool save_checkpoint(std::ostream& os) const {
    (void)os;
    return false;
  }

  /// Delta/policy statistics (fields a layer does not own stay zero).
  virtual EngineStats serving_stats() const { return {}; }

  /// Coarse resident-size estimate of the engine's warm state, for
  /// size-aware admission (fleet::FleetEngine warm/cold tiering).  Not an
  /// exact malloc total; the default assumes a few words per node.
  virtual std::size_t footprint_bytes() const noexcept { return size() * 16; }

  /// Flushes the notification window: which nodes the views published since
  /// the previous take relabelled (map to changed classes through the
  /// current view), or a whole-partition downgrade.  Never disturbs the
  /// view patch chain — it is the read-side change feed serving front ends
  /// (serve::Server SUBSCRIBE) consume.  Engines without delta tracking
  /// (batch) always downgrade to full.
  virtual inc::ViewDelta take_view_delta() { return inc::ViewDelta{epoch(), true, {}}; }

  /// Installs (or, with null, removes) a session worker pool on the
  /// engine's internal execution contexts, so its parallel rounds run on
  /// that pool instead of the calling thread's default pool
  /// (pram/worker_pool.hpp).
  /// Engines hold context COPIES taken at construction, which is why the
  /// pool cannot ride in via the caller's thread-local context alone.  The
  /// pool must outlive the engine (or be uninstalled first); default no-op.
  virtual void install_pool(pram::WorkerPool* pool) { (void)pool; }

  /// Rebinds the engine's work/depth sink (null = don't count) on its
  /// internal execution contexts — same construction-time-copy rationale as
  /// install_pool.  fleet::FleetEngine uses this to point each engine at a
  /// per-lane scratch sink for the duration of a warm fan and back at the
  /// session sink afterwards; the sink must outlive the binding.  Default
  /// no-op for engines that never charge.
  virtual void set_metrics(pram::Metrics* m) { (void)m; }
};

/// Lazy re-solve engine: apply() mutates the instance and marks the cached
/// view stale; view() re-solves at most once per epoch.
class BatchEngine final : public Engine {
 public:
  explicit BatchEngine(graph::Instance inst, core::Options opt = core::Options::parallel(),
                       pram::ExecutionContext ctx = {});

  /// Seeds the cached view from an already-computed solve of `inst` (the
  /// batched cold-start path: solve_batch's consumer constructs engines
  /// from results it just produced, with no lazy re-solve owed).  Throws
  /// std::invalid_argument when the result size disagrees.
  BatchEngine(graph::Instance inst, core::Result seed,
              core::Options opt = core::Options::parallel(), pram::ExecutionContext ctx = {});

  /// Restores an engine at a given epoch with a stale cache (fleet cold
  /// fault-in: the next view() re-solves the restored instance lazily).
  BatchEngine(graph::Instance inst, u64 epoch, core::Options opt = core::Options::parallel(),
              pram::ExecutionContext ctx = {});

  std::string_view kind() const noexcept override { return "batch"; }
  const graph::Instance& instance() const noexcept override { return inst_; }
  u64 epoch() const noexcept override { return epoch_; }
  core::PartitionView view() override;
  void apply(std::span<const inc::Edit> edits) override;
  EngineStats serving_stats() const override {
    EngineStats s;
    s.edits.edits = epoch_;  // every state-changing edit; re-solves are lazy
    s.profile = prof::session_snapshot();
    return s;
  }

  core::Solver& solver() noexcept { return solver_; }

  void install_pool(pram::WorkerPool* pool) override { solver_.context().pool = pool; }
  void set_metrics(pram::Metrics* m) override { solver_.context().metrics = m; }

  std::size_t footprint_bytes() const noexcept override {
    return (inst_.f.capacity() + inst_.b.capacity()) * sizeof(u32) +
           (stale_ ? 0 : inst_.size() * sizeof(u32)) + solver_.workspace().capacity_bytes();
  }

 private:
  graph::Instance inst_;
  core::Solver solver_;
  core::PartitionView cached_;
  u64 epoch_ = 0;
  bool stale_ = true;
};

/// Per-edit repair engine wrapping inc::IncrementalSolver.
class IncrementalEngine final : public Engine {
 public:
  explicit IncrementalEngine(graph::Instance inst,
                             core::Options opt = core::Options::parallel(),
                             pram::ExecutionContext ctx = {}, inc::RepairPolicy policy = {});
  /// Adopts an existing solver (e.g. one restored via IncrementalSolver::load).
  explicit IncrementalEngine(inc::IncrementalSolver solver);

  std::string_view kind() const noexcept override { return "incremental"; }
  const graph::Instance& instance() const noexcept override { return inc_.instance(); }
  u64 epoch() const noexcept override { return inc_.epoch(); }
  core::PartitionView view() override { return inc_.view(); }
  void apply(std::span<const inc::Edit> edits) override { inc_.apply(edits); }
  bool checkpointable() const noexcept override { return true; }
  bool save_checkpoint(std::ostream& os) const override;
  EngineStats serving_stats() const override {
    EngineStats s;
    s.edits = inc_.stats();
    s.deltas = inc_.delta_stats();
    s.adaptive_repair = inc_.policy().adaptive;
    s.repair_fit = inc_.cost_model();
    s.profile = prof::session_snapshot();
    return s;
  }

  inc::ViewDelta take_view_delta() override { return inc_.take_view_delta(); }
  std::size_t footprint_bytes() const noexcept override { return inc_.footprint_bytes(); }

  void install_pool(pram::WorkerPool* pool) override { inc_.solver().context().pool = pool; }
  void set_metrics(pram::Metrics* m) override { inc_.solver().context().metrics = m; }

  inc::IncrementalSolver& solver() noexcept { return inc_; }
  const inc::IncrementalSolver& solver() const noexcept { return inc_; }

 private:
  inc::IncrementalSolver inc_;
};

/// Restores an IncrementalEngine from an `sfcp-checkpoint v1` stream.  The
/// solve configuration — options, context, repair policy — is the caller's,
/// not the stream's, exactly as with IncrementalSolver::load.
std::unique_ptr<Engine> load_incremental_engine(std::istream& is,
                                                core::Options opt = core::Options::parallel(),
                                                pram::ExecutionContext ctx = {},
                                                inc::RepairPolicy policy = {});

/// What load_engine_checkpoint restored: the engine plus the registry name
/// detected from the stream's magic, so callers (fleet fault-in,
/// incremental_server `restore`) can report or validate the kind without
/// re-sniffing the bytes.
struct LoadedEngine {
  std::unique_ptr<Engine> engine;
  std::string_view kind;  ///< engines() registry name ("incremental")
};

/// Restores whichever checkpointable engine wrote the stream, detected from
/// the 8-byte magic: the `sfcp-checkpoint v1` magic yields an
/// IncrementalEngine running `policy`.  Throws std::runtime_error on any
/// other magic or a malformed stream.
LoadedEngine load_engine_checkpoint(std::istream& is,
                                    core::Options opt = core::Options::parallel(),
                                    pram::ExecutionContext ctx = {},
                                    inc::RepairPolicy policy = {});

// ---- engine registry -----------------------------------------------------

struct EngineInfo {
  std::string name;         ///< unique registry key
  std::string description;  ///< one-line human-readable summary
  std::function<std::unique_ptr<Engine>(graph::Instance, const core::Options&,
                                        const pram::ExecutionContext&)>
      make;
};

class EngineRegistry {
 public:
  std::span<const EngineInfo> all() const noexcept { return entries_; }
  std::vector<std::string> names() const;
  const EngineInfo* find(std::string_view name) const noexcept;

  /// Constructs the named engine; throws std::out_of_range naming the key
  /// when absent.
  std::unique_ptr<Engine> make(std::string_view name, graph::Instance inst,
                               const core::Options& opt = core::Options::parallel(),
                               const pram::ExecutionContext& ctx = {}) const;

  /// Registers (or, for an existing name, replaces) an entry.
  void add(EngineInfo info);

 private:
  std::vector<EngineInfo> entries_;
};

/// The process-wide engine registry, preloaded with "batch" and
/// "incremental".  Like sfcp::registry(), mutate only before spawning
/// concurrent users.
EngineRegistry& engines();

}  // namespace sfcp
