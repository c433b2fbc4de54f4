// fleet::FleetEngine — instance-keyed routing, warm/cold tiering and batched
// cold-start solving, plus the FLEET_EDIT/FLEET_VIEW wire mode of
// serve::Server.  The load-bearing invariant throughout: whatever tier an
// instance is in, its view is byte-identical to a fresh core::solve of its
// evolved instance — eviction and fault-in must be invisible.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/solver.hpp"
#include "engine.hpp"
#include "fleet/fleet_engine.hpp"
#include "fleet/slab_arena.hpp"
#include "pram/metrics.hpp"
#include "pram/worker_pool.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

std::vector<u32> to_vec(std::span<const u32> s) { return {s.begin(), s.end()}; }

graph::Instance make_instance(fleet::InstanceId id, std::size_t n = 48) {
  util::Rng rng(0xf1ee7 ^ (id * 0x9e3779b97f4a7c15ull + 1));
  return util::random_function(n, 4, rng);
}

std::vector<inc::Edit> make_edits(const graph::Instance& inst, std::size_t count, u64 seed) {
  util::Rng rng(seed);
  return util::random_edit_stream(inst, count, util::EditMix::Uniform, 4, rng);
}

/// A scratch directory under the gtest temp root, wiped on destruction.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& name) : path(::testing::TempDir() + name) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

// ---- SlabArena -----------------------------------------------------------

TEST(SlabArena, ReusesBlocksByClass) {
  fleet::SlabArena arena;
  void* a = arena.allocate(100, 8);
  ASSERT_NE(a, nullptr);
  fleet::SlabArena::Stats st = arena.stats();
  EXPECT_EQ(st.live_blocks, 1u);
  EXPECT_GE(st.live_bytes, 100u);
  arena.deallocate(a, 100, 8);
  st = arena.stats();
  EXPECT_EQ(st.live_blocks, 0u);
  EXPECT_GT(st.pooled_bytes, 0u);
  // Same size class (128-byte blocks): the freed block must come back.
  void* b = arena.allocate(120, 8);
  EXPECT_EQ(b, a);
  EXPECT_EQ(arena.stats().reuses, 1u);
  arena.deallocate(b, 120, 8);
  arena.trim();
  st = arena.stats();
  EXPECT_EQ(st.pooled_bytes, 0u);
  EXPECT_EQ(st.live_blocks, 0u);
}

TEST(SlabArena, OversizedAndOveralignedPassThrough) {
  fleet::SlabArena arena;
  // Alignment beyond max_align_t is not pooled but must still round-trip.
  void* p = arena.allocate(64, 128);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 128, 0u);
  arena.deallocate(p, 64, 128);
  EXPECT_EQ(arena.stats().live_blocks, 0u);
}

// ---- routing + materialization -------------------------------------------

TEST(FleetEngine, RoutesAndMatchesFreshSolve) {
  fleet::FleetEngine fleet;
  core::Solver oracle;
  graph::Instance ref = make_instance(7);
  fleet.create(7, ref);
  EXPECT_TRUE(fleet.contains(7));
  EXPECT_FALSE(fleet.contains(8));
  EXPECT_EQ(fleet.epoch(7), 0u);

  const std::vector<inc::Edit> edits = make_edits(ref, 12, 101);
  const u64 epoch = fleet.apply(7, edits);
  EXPECT_GT(epoch, 0u);
  for (const inc::Edit& e : edits) inc::apply_raw(e, ref.f, ref.b);
  const core::Result want = oracle.solve(ref);
  const core::PartitionView got = fleet.view(7);
  EXPECT_EQ(got.num_classes(), want.num_blocks);
  EXPECT_EQ(to_vec(got.labels()), want.q);
  EXPECT_EQ(fleet.epoch(7), epoch);
  EXPECT_EQ(fleet.instance_size(7), ref.size());
}

TEST(FleetEngine, FactoryMaterializesUnknownIds) {
  fleet::FleetEngine fleet;
  fleet.set_factory([](fleet::InstanceId id) { return make_instance(id); });
  core::Solver oracle;
  for (fleet::InstanceId id : {u64{3}, u64{99}, u64{100000}}) {
    const core::PartitionView got = fleet.view(id);
    const core::Result want = oracle.solve(make_instance(id));
    EXPECT_EQ(to_vec(got.labels()), want.q) << "id=" << id;
  }
  EXPECT_EQ(fleet.instance_count(), 3u);
  EXPECT_EQ(fleet.instance_size(12345), make_instance(12345).size());
}

TEST(FleetEngine, UnknownIdWithoutFactoryThrows) {
  fleet::FleetEngine fleet;
  EXPECT_THROW(fleet.view(42), std::out_of_range);
  const inc::Edit e = inc::Edit::set_f(0, 1);
  EXPECT_THROW(fleet.apply(42, {&e, 1}), std::out_of_range);
}

TEST(FleetEngine, DuplicateCreateThrows) {
  fleet::FleetEngine fleet;
  fleet.create(1, make_instance(1));
  EXPECT_THROW(fleet.create(1, make_instance(1)), std::invalid_argument);
}

TEST(FleetEngine, RoutingTableGrowsPastHundredsOfIds) {
  fleet::FleetEngine fleet;
  fleet.set_factory([](fleet::InstanceId id) { return make_instance(id, 8); });
  for (fleet::InstanceId id = 0; id < 500; ++id) {
    // Scatter ids across the hash space; every touch must route correctly.
    (void)fleet.instance_size(id * 0x10001u + 7);
  }
  EXPECT_EQ(fleet.instance_count(), 500u);
  for (fleet::InstanceId id = 0; id < 500; ++id) {
    EXPECT_TRUE(fleet.contains(id * 0x10001u + 7));
  }
  EXPECT_FALSE(fleet.contains(3));
}

// ---- warm/cold tiering ---------------------------------------------------

/// Evict→fault-in round trip for one engine kind: view bytes, class count
/// and epoch must all survive the trip, in memory or via a spill dir.
void round_trip_kind(const std::string& kind, const std::string& spill_dir) {
  fleet::FleetConfig cfg;
  cfg.engine = kind;
  cfg.spill_dir = spill_dir;
  fleet::FleetEngine fleet(std::move(cfg));
  graph::Instance ref = make_instance(1);
  fleet.create(1, ref);
  const std::vector<inc::Edit> edits = make_edits(ref, 10, 202);
  const u64 epoch = fleet.apply(1, edits);

  const std::vector<u32> want_labels = to_vec(fleet.view(1).labels());
  const u32 want_classes = fleet.view(1).num_classes();
  ASSERT_TRUE(fleet.is_warm(1)) << kind;
  ASSERT_TRUE(fleet.evict(1)) << kind;
  EXPECT_FALSE(fleet.is_warm(1)) << kind;
  EXPECT_FALSE(fleet.evict(1)) << kind;  // already cold
  EXPECT_EQ(fleet.stats().cold, 1u) << kind;
  // Cold epoch answers from the eviction record, without faulting in.
  EXPECT_EQ(fleet.epoch(1), epoch) << kind;
  EXPECT_FALSE(fleet.is_warm(1)) << kind;
  if (!spill_dir.empty()) {
    EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(spill_dir) / "i1.ckpt"))
        << kind;
  }

  const core::PartitionView got = fleet.view(1);  // faults back in
  EXPECT_TRUE(fleet.is_warm(1)) << kind;
  EXPECT_EQ(fleet.stats().faults, 1u) << kind;
  EXPECT_EQ(to_vec(got.labels()), want_labels) << kind << ": view bytes changed across "
                                               << "evict/fault-in";
  EXPECT_EQ(got.num_classes(), want_classes) << kind;
  EXPECT_EQ(fleet.epoch(1), epoch) << kind;
}

TEST(FleetEngine, EvictFaultInRoundTripAllKindsInMemory) {
  for (const auto& info : engines().all()) {
    round_trip_kind(info.name, "");
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(FleetEngine, EvictFaultInRoundTripAllKindsSpillDir) {
  for (const auto& info : engines().all()) {
    TempDir dir("fleet_spill_" + info.name);
    round_trip_kind(info.name, dir.path.string());
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(FleetEngine, SpillDirAdoptedAcrossRestart) {
  TempDir dir("fleet_adopt");
  core::Solver oracle;
  graph::Instance ref = make_instance(5);
  std::vector<inc::Edit> edits = make_edits(ref, 8, 303);
  {
    fleet::FleetConfig cfg;
    cfg.spill_dir = dir.path.string();
    fleet::FleetEngine fleet(std::move(cfg));
    fleet.create(5, ref);
    fleet.apply(5, edits);
    ASSERT_TRUE(fleet.evict(5));
  }
  for (const inc::Edit& e : edits) inc::apply_raw(e, ref.f, ref.b);
  const core::Result want = oracle.solve(ref);

  fleet::FleetConfig cfg;
  cfg.spill_dir = dir.path.string();
  fleet::FleetEngine fleet(std::move(cfg));  // adopts i5.ckpt
  EXPECT_TRUE(fleet.contains(5));
  EXPECT_EQ(fleet.stats().cold, 1u);
  EXPECT_EQ(to_vec(fleet.view(5).labels()), want.q);
}

TEST(FleetEngine, SpillDirSkipsNonCanonicalNames) {
  // Only `i<id>.ckpt` exactly as spill_path_ writes it is adopted.  A
  // leading zero (i007) or digits past 2^64 (2^64 + 9 would wrap to 9)
  // name no id's spill file; adopting them used to leave ids 7 and 9 cold
  // on a path that does not exist, so every later operation threw "cannot
  // open spill file".  Here both stay unknown and the factory serves them.
  TempDir dir("fleet_adopt_noncanonical");
  for (const char* name : {"i007.ckpt", "i18446744073709551625.ckpt"}) {
    std::ofstream(dir.path / name) << "not a checkpoint";
  }
  fleet::FleetConfig cfg;
  cfg.spill_dir = dir.path.string();
  fleet::FleetEngine fleet(std::move(cfg));
  EXPECT_FALSE(fleet.contains(7));
  EXPECT_FALSE(fleet.contains(9));
  EXPECT_EQ(fleet.stats().cold, 0u);
  fleet.set_factory([](fleet::InstanceId id) { return make_instance(id); });
  core::Solver oracle;
  for (const fleet::InstanceId id : {fleet::InstanceId{7}, fleet::InstanceId{9}}) {
    EXPECT_EQ(to_vec(fleet.view(id).labels()), oracle.solve(make_instance(id)).q) << id;
  }
}

TEST(FleetEngine, WarmLimitEvictsLruTail) {
  fleet::FleetConfig cfg;
  cfg.warm_limit = 4;
  fleet::FleetEngine fleet(std::move(cfg));
  fleet.set_factory([](fleet::InstanceId id) { return make_instance(id, 24); });
  for (fleet::InstanceId id = 0; id < 12; ++id) (void)fleet.view(id);
  const fleet::FleetStats st = fleet.stats();
  EXPECT_EQ(st.warm, 4u);
  EXPECT_EQ(st.cold, 8u);
  EXPECT_GE(st.evictions, 8u);
  // LRU: the most recently touched ids are the ones still warm.
  EXPECT_TRUE(fleet.is_warm(11));
  EXPECT_TRUE(fleet.is_warm(8));
  EXPECT_FALSE(fleet.is_warm(0));
  // Views of evicted instances still match fresh solves.
  core::Solver oracle;
  for (fleet::InstanceId id = 0; id < 12; ++id) {
    EXPECT_EQ(to_vec(fleet.view(id).labels()), oracle.solve(make_instance(id, 24)).q)
        << "id=" << id;
  }
}

TEST(FleetEngine, SizeAwareAdmissionBoundsWarmBytes) {
  fleet::FleetConfig cfg;
  cfg.warm_limit = 0;
  fleet::FleetEngine probe;
  probe.set_factory([](fleet::InstanceId id) { return make_instance(id, 64); });
  (void)probe.view(0);
  const std::size_t one = probe.stats().warm_bytes;
  ASSERT_GT(one, 0u);

  // Room for about three instances of this footprint.
  const std::size_t limit = one * 3 + one / 2;
  cfg.warm_bytes_limit = limit;
  fleet::FleetEngine fleet(std::move(cfg));
  fleet.set_factory([](fleet::InstanceId id) { return make_instance(id, 64); });
  for (fleet::InstanceId id = 0; id < 10; ++id) (void)fleet.view(id);
  const fleet::FleetStats st = fleet.stats();
  EXPECT_LE(st.warm_bytes, limit);
  EXPECT_GE(st.evictions, 6u);
  EXPECT_EQ(st.oversized_rejects, 0u);
}

TEST(FleetEngine, OversizedInstanceStaysPinnedThenReclaimed) {
  fleet::FleetConfig cfg;
  cfg.warm_limit = 0;
  cfg.warm_bytes_limit = 1;  // nothing fits
  fleet::FleetEngine fleet(std::move(cfg));
  fleet.set_factory([](fleet::InstanceId id) { return make_instance(id, 32); });
  core::Solver oracle;
  // The view must stay valid even though the instance alone busts the cap —
  // it is pinned for the operation, counted oversized, not destroyed.
  const core::PartitionView v = fleet.view(9);
  EXPECT_EQ(to_vec(v.labels()), oracle.solve(make_instance(9, 32)).q);
  fleet::FleetStats st = fleet.stats();
  EXPECT_EQ(st.warm, 1u);
  EXPECT_GE(st.oversized_rejects, 1u);
  // The next operation's sweep reclaims it: only the new pin stays warm.
  (void)fleet.view(10);
  st = fleet.stats();
  EXPECT_EQ(st.warm, 1u);
  EXPECT_EQ(st.cold, 1u);
  EXPECT_FALSE(fleet.is_warm(9));
  EXPECT_GE(st.evictions, 1u);
  // And the evicted one still faults back byte-identical.
  EXPECT_EQ(to_vec(fleet.view(9).labels()), oracle.solve(make_instance(9, 32)).q);
}

TEST(FleetEngine, ArenaRecyclesAcrossEvictChurn) {
  fleet::FleetConfig cfg;
  cfg.engine = "incremental";
  cfg.warm_limit = 2;
  fleet::FleetEngine fleet(std::move(cfg));
  fleet.set_factory([](fleet::InstanceId id) { return make_instance(id, 40); });
  for (int round = 0; round < 3; ++round) {
    for (fleet::InstanceId id = 0; id < 8; ++id) (void)fleet.view(id);
  }
  // Churn must hit the allocator's freelists, not just the global heap.
  EXPECT_GT(fleet.arena().stats().reuses, 0u);
  EXPECT_GT(fleet.stats().arena_bytes, 0u);
}

TEST(FleetEngine, FaultInKeepsConfiguredRepairPolicy) {
  // A faulted-in incremental tenant runs FleetConfig::repair, as the cold
  // batch built it.  At 24 nodes the default policy re-solves every
  // non-empty apply (batch_rebuild_threshold(24) == 1); fraction 1.0 lets a
  // one-edit apply repair, so a tenant restored with the default policy
  // counts its next edit as a rebuild.
  pram::Metrics metrics;
  fleet::FleetConfig cfg;
  cfg.engine = "incremental";
  cfg.repair.batch_rebuild_fraction = 1.0;
  cfg.ctx.metrics = &metrics;
  fleet::FleetEngine fleet(std::move(cfg));
  graph::Instance ref = make_instance(3, 24);
  fleet.create(3, ref);

  struct Counted {
    u64 repairs, rebuilds;
  };
  const auto apply_one = [&](inc::Edit e) {
    const pram::MetricsSnapshot before = metrics.snapshot();
    (void)fleet.apply(3, std::vector<inc::Edit>{e});
    inc::apply_raw(e, ref.f, ref.b);
    const pram::MetricsSnapshot after = metrics.snapshot();
    return Counted{after.edit_repairs - before.edit_repairs,
                   after.edit_rebuilds - before.edit_rebuilds};
  };

  // Fresh labels, so neither edit is a no-op.
  const Counted warm = apply_one(inc::Edit::set_b(5, 7));
  EXPECT_EQ(warm.repairs, 1u);
  EXPECT_EQ(warm.rebuilds, 0u);

  ASSERT_TRUE(fleet.evict(3));
  const Counted faulted = apply_one(inc::Edit::set_b(9, 8));
  EXPECT_EQ(fleet.stats().faults, 1u);
  EXPECT_EQ(faulted.repairs, 1u) << "the faulted-in tenant lost FleetConfig::repair";
  EXPECT_EQ(faulted.rebuilds, 0u);
  EXPECT_EQ(to_vec(fleet.view(3).labels()), core::Solver().solve(ref).q);
}

// ---- batched cold-start --------------------------------------------------

TEST(FleetEngine, ColdFloodFunnelsThroughSolveBatch) {
  constexpr std::size_t kFlood = 64;
  fleet::FleetEngine fleet;
  fleet.set_factory([](fleet::InstanceId id) { return make_instance(id, 24); });
  std::vector<fleet::InstanceEdit> batch;
  std::vector<graph::Instance> refs;
  for (std::size_t i = 0; i < kFlood; ++i) {
    refs.push_back(make_instance(i, 24));
    const inc::Edit e =
        inc::Edit::set_f(static_cast<u32>(i % refs[i].size()), static_cast<u32>(i % 7));
    inc::apply_raw(e, refs[i].f, refs[i].b);
    batch.push_back({i, e});
  }
  fleet.apply_batch(batch);
  const fleet::FleetStats st = fleet.stats();
  EXPECT_GE(st.cold_batches, 1u);
  EXPECT_EQ(st.batched_cold_instances, kFlood);
  EXPECT_EQ(st.edits, kFlood);
  core::Solver oracle;
  for (std::size_t i = 0; i < kFlood; ++i) {
    EXPECT_EQ(to_vec(fleet.view(i).labels()), oracle.solve(refs[i]).q) << "id=" << i;
  }
}

TEST(FleetEngine, ApplyBatchPreservesPerIdOrderAcrossInterleaving) {
  fleet::FleetEngine fleet;
  graph::Instance a = make_instance(1), b = make_instance(2);
  fleet.create(1, a);
  fleet.create(2, b);
  const std::vector<inc::Edit> ea = make_edits(a, 6, 404);
  const std::vector<inc::Edit> eb = make_edits(b, 6, 405);
  std::vector<fleet::InstanceEdit> batch;
  for (std::size_t i = 0; i < 6; ++i) {
    batch.push_back({1, ea[i]});
    batch.push_back({2, eb[i]});
  }
  fleet.apply_batch(batch);
  for (const inc::Edit& e : ea) inc::apply_raw(e, a.f, a.b);
  for (const inc::Edit& e : eb) inc::apply_raw(e, b.f, b.b);
  core::Solver oracle;
  EXPECT_EQ(to_vec(fleet.view(1).labels()), oracle.solve(a).q);
  EXPECT_EQ(to_vec(fleet.view(2).labels()), oracle.solve(b).q);
}

// ---- concurrent warm path (pooled apply_batch) ---------------------------
// TSan targets: these run in the sanitize=thread CI job (the FleetEngine.*
// ctest regex) and pin the warm-fan contract — exactly-once edit
// application under lane contention, lock-free routing reads racing
// caller-lane mutations, and byte/charge parity with a threads=1 apply.

/// One warm-fan parity case: `ids` tenants of `nodes` nodes each, edited
/// by pooled apply_batch rounds at `width` threads on a `width`-wide pool,
/// must end with the epochs, views and PRAM charges of a threads=1 run.
struct WarmFanInput {
  std::size_t ids;
  std::size_t nodes;
  int width;  ///< threads and pool width of the pooled run
  std::size_t warm_limit;
  bool always_rebuild;  ///< repair.batch_rebuild_fraction = 0
};

void expect_warm_fan_matches_serial(const WarmFanInput& in) {
  constexpr std::size_t kRounds = 5;
  constexpr std::size_t kEditsPerRound = 3;

  struct RunResult {
    std::vector<std::vector<u32>> views;
    std::vector<u64> epochs;
    pram::MetricsSnapshot delta;
  };
  // Shared per-id edit streams, sampled once against the initial instances
  // (node/label ranges never change, so the streams stay valid all rounds).
  std::vector<std::vector<inc::Edit>> streams(in.ids);
  for (std::size_t id = 0; id < in.ids; ++id) {
    streams[id] = make_edits(make_instance(id, in.nodes), kRounds * kEditsPerRound, 700 + id);
  }

  auto run = [&](int threads, pram::WorkerPool* pool) {
    pram::Metrics metrics;
    fleet::FleetConfig cfg;
    cfg.engine = "incremental";
    cfg.warm_limit = in.warm_limit;
    if (in.always_rebuild) cfg.repair.batch_rebuild_fraction = 0.0;
    cfg.ctx.threads = threads;
    cfg.ctx.metrics = &metrics;
    fleet::FleetEngine fleet(std::move(cfg));
    fleet.set_factory([&](fleet::InstanceId id) { return make_instance(id, in.nodes); });
    if (pool != nullptr) fleet.install_pool(pool);

    // Round 0 materializes every id through the cold-batch path; charges up
    // to here are construction-shaped, so compare deltas past it.
    std::vector<fleet::InstanceEdit> batch;
    for (std::size_t id = 0; id < in.ids; ++id) batch.push_back({id, streams[id][0]});
    fleet.apply_batch(batch);
    const pram::MetricsSnapshot base = metrics.snapshot();

    for (std::size_t r = 1; r < kRounds; ++r) {
      batch.clear();
      // Interleave ids within the round so groups carry per-id order.
      for (std::size_t e = 0; e < kEditsPerRound; ++e) {
        for (std::size_t id = 0; id < in.ids; ++id) {
          batch.push_back({id, streams[id][r * kEditsPerRound + e]});
        }
      }
      fleet.apply_batch(batch);
    }

    RunResult out;
    const pram::MetricsSnapshot end = metrics.snapshot();
    out.delta.operations = end.operations - base.operations;
    out.delta.rounds = end.rounds - base.rounds;
    out.delta.sort_ops = end.sort_ops - base.sort_ops;
    out.delta.crcw_writes = end.crcw_writes - base.crcw_writes;
    out.delta.edit_repairs = end.edit_repairs - base.edit_repairs;
    out.delta.edit_rebuilds = end.edit_rebuilds - base.edit_rebuilds;
    out.delta.edit_dirty = end.edit_dirty - base.edit_dirty;
    out.delta.view_patched = end.view_patched - base.view_patched;
    out.delta.view_rebuilt = end.view_rebuilt - base.view_rebuilt;
    for (std::size_t id = 0; id < in.ids; ++id) {
      out.epochs.push_back(fleet.epoch(id));
      out.views.push_back(to_vec(fleet.view(id).labels()));
    }
    if (pool != nullptr) fleet.install_pool(nullptr);
    return out;
  };

  const RunResult serial = run(1, nullptr);
  pram::WorkerPool pool(in.width);
  const RunResult pooled = run(in.width, &pool);

  EXPECT_EQ(pooled.epochs, serial.epochs);
  for (std::size_t id = 0; id < in.ids; ++id) {
    EXPECT_EQ(pooled.views[id], serial.views[id]) << "id=" << id;
  }
  if (in.always_rebuild) {
    EXPECT_EQ(serial.delta.edit_repairs, 0u) << "an apply skipped the re-solve";
    EXPECT_GT(serial.delta.edit_rebuilds, 0u);
  }
  // Charge parity with the serial path, field by field.  Wall-clock fields
  // (edit_repair_ns / edit_rebuild_ns) are timing-dependent and excluded.
  EXPECT_EQ(pooled.delta.operations, serial.delta.operations);
  EXPECT_EQ(pooled.delta.rounds, serial.delta.rounds);
  EXPECT_EQ(pooled.delta.sort_ops, serial.delta.sort_ops);
  EXPECT_EQ(pooled.delta.crcw_writes, serial.delta.crcw_writes);
  EXPECT_EQ(pooled.delta.edit_repairs, serial.delta.edit_repairs);
  EXPECT_EQ(pooled.delta.edit_rebuilds, serial.delta.edit_rebuilds);
  EXPECT_EQ(pooled.delta.edit_dirty, serial.delta.edit_dirty);
  EXPECT_EQ(pooled.delta.view_patched, serial.delta.view_patched);
  EXPECT_EQ(pooled.delta.view_rebuilt, serial.delta.view_rebuilt);
}

TEST(FleetEngine, WarmFanMatchesSerialChargesAndViews) {
  // A warm cap of ids/3: every batch crosses the evict/fault churn.
  expect_warm_fan_matches_serial({.ids = 24, .nodes = 32, .width = 4, .warm_limit = 8,
                                  .always_rebuild = false});
}

TEST(PoolDeterminism, SuperGrainCallerLaneRepairsMatchSingleThread) {
  // Super-grain tenants: 3000 nodes pass the default grain of 2048, so a
  // repair's inner rounds are parallel-eligible, and at width 2 every odd
  // slot repairs on the CALLER lane, inline inside wait().  Fraction 0 turns
  // every apply into a full re-solve, so those rounds always run.  They must
  // stay serial instead of re-entering the pool from the drain loop, which
  // once replayed completed tasks (double charges, corrupt state).  The warm
  // set holds every tenant: a fault-in restores the default repair policy.
  expect_warm_fan_matches_serial({.ids = 4, .nodes = 3000, .width = 2, .warm_limit = 0,
                                  .always_rebuild = true});
}

TEST(FleetEngine, WarmFanAppliesEachEditExactlyOnce) {
  // Width 2: lane 1 is the caller lane, so worker-lane and caller-lane
  // groups run side by side every batch — the tightest contention shape.
  constexpr std::size_t kIds = 32;
  constexpr std::size_t kN = 16;
  constexpr std::size_t kRounds = 8;
  pram::WorkerPool pool(2);
  fleet::FleetConfig cfg;
  cfg.engine = "incremental";
  cfg.warm_limit = 0;  // keep every id warm: all rounds take the fan
  cfg.ctx.threads = 2;
  fleet::FleetEngine fleet(std::move(cfg));
  std::vector<graph::Instance> mirror;
  for (std::size_t id = 0; id < kIds; ++id) {
    mirror.push_back(make_instance(id, kN));
    fleet.create(id, mirror.back());
  }
  fleet.install_pool(&pool);

  // Every edit is guaranteed state-changing (f[x] -> f[x]+1 mod n), so the
  // per-instance epoch advances by exactly one per edit: a dropped or
  // double-applied edit shows up as an epoch mismatch, not just a view one.
  std::vector<fleet::InstanceEdit> batch;
  for (std::size_t r = 0; r < kRounds; ++r) {
    batch.clear();
    for (std::size_t id = 0; id < kIds; ++id) {
      const u32 x = static_cast<u32>((r * 7 + id) % kN);
      const u32 v = static_cast<u32>((mirror[id].f[x] + 1) % kN);
      const inc::Edit e = inc::Edit::set_f(x, v);
      inc::apply_raw(e, mirror[id].f, mirror[id].b);
      batch.push_back({id, e});
    }
    fleet.apply_batch(batch);
  }

  core::Solver oracle;
  for (std::size_t id = 0; id < kIds; ++id) {
    EXPECT_EQ(fleet.epoch(id), kRounds) << "id=" << id;
    EXPECT_EQ(to_vec(fleet.view(id).labels()), oracle.solve(mirror[id]).q) << "id=" << id;
  }
  EXPECT_EQ(fleet.stats().edits, kRounds * kIds);
  fleet.install_pool(nullptr);
}

TEST(FleetEngine, LockFreeObserversRaceCallerMutations) {
  // Reader threads hammer the lock-free observers over the full id range
  // while the caller thread grows the routing table (materialization),
  // fans warm batches, and evicts — the exact races the RouteTable /
  // atomic-tier scheme exists to make safe.  Correctness of the answers is
  // only loosely asserted (tiers move under the readers); the point is
  // that TSan sees the access pattern.
  constexpr std::size_t kIds = 192;  // > 70% of 256: forces table regrowth
  constexpr std::size_t kN = 12;
  constexpr std::size_t kRounds = 6;
  pram::WorkerPool pool(4);
  fleet::FleetConfig cfg;
  cfg.engine = "incremental";
  cfg.warm_limit = 16;
  cfg.ctx.threads = 4;
  fleet::FleetEngine fleet(std::move(cfg));
  fleet.set_factory([](fleet::InstanceId id) { return make_instance(id, kN); });
  fleet.install_pool(&pool);

  std::atomic<bool> stop{false};
  std::atomic<u64> observed{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      u64 acc = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (std::size_t id = 0; id < kIds; ++id) {
          acc += fleet.contains(id) ? 1 : 0;
          acc += fleet.is_warm(id) ? 1 : 0;
        }
        acc += fleet.warm_count() + fleet.instance_count();
      }
      observed.fetch_add(acc, std::memory_order_relaxed);
    });
  }

  std::vector<graph::Instance> mirror;
  for (std::size_t id = 0; id < kIds; ++id) mirror.push_back(make_instance(id, kN));
  std::vector<fleet::InstanceEdit> batch;
  for (std::size_t r = 0; r < kRounds; ++r) {
    // Each round touches a growing prefix, so materialization (and table
    // growth) keeps happening while readers probe ids not yet inserted.
    const std::size_t upto = kIds * (r + 1) / kRounds;
    batch.clear();
    for (std::size_t id = 0; id < upto; ++id) {
      const u32 x = static_cast<u32>((r * 5 + id) % kN);
      const u32 v = static_cast<u32>((mirror[id].f[x] + 1) % kN);
      const inc::Edit e = inc::Edit::set_f(x, v);
      inc::apply_raw(e, mirror[id].f, mirror[id].b);
      batch.push_back({id, e});
    }
    fleet.apply_batch(batch);
    for (std::size_t id = r; id < upto; id += kRounds) (void)fleet.evict(id);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : readers) th.join();
  EXPECT_GT(observed.load(), 0u);

  EXPECT_EQ(fleet.instance_count(), kIds);
  core::Solver oracle;
  for (std::size_t id = 0; id < kIds; id += 17) {
    EXPECT_EQ(to_vec(fleet.view(id).labels()), oracle.solve(mirror[id]).q) << "id=" << id;
  }
  fleet.install_pool(nullptr);
}

// ---- fleet-mode serving (FLEET_EDIT / FLEET_VIEW over loopback) ----------

struct ServerRunner {
  serve::Server& server;
  std::thread loop;
  explicit ServerRunner(serve::Server& s) : server(s), loop([&s] { s.run(); }) {}
  ~ServerRunner() {
    server.stop();
    loop.join();
  }
};

std::unique_ptr<fleet::FleetEngine> make_served_fleet() {
  auto fleet = std::make_unique<fleet::FleetEngine>();
  fleet->set_factory([](fleet::InstanceId id) { return make_instance(id, 32); });
  return fleet;
}

TEST(FleetServe, FleetEditAndViewRouteByInstance) {
  serve::Server server(make_served_fleet());
  ServerRunner runner(server);
  serve::Client client = serve::Client::connect("127.0.0.1", server.port());

  core::Solver oracle;
  graph::Instance r1 = make_instance(1, 32), r2 = make_instance(2, 32);
  const std::vector<inc::Edit> e1 = make_edits(r1, 8, 501);
  const std::vector<inc::Edit> e2 = make_edits(r2, 8, 502);
  const u64 epoch1 = client.fleet_apply(1, e1);
  const u64 epoch2 = client.fleet_apply(2, e2);
  EXPECT_GT(epoch1, 0u);
  EXPECT_GT(epoch2, 0u);
  for (const inc::Edit& e : e1) inc::apply_raw(e, r1.f, r1.b);
  for (const inc::Edit& e : e2) inc::apply_raw(e, r2.f, r2.b);

  const serve::Client::ViewInfo v1 = client.fleet_view(1);
  const serve::Client::ViewInfo v2 = client.fleet_view(2);
  EXPECT_EQ(v1.n, r1.size());
  EXPECT_EQ(v1.num_classes, oracle.solve(r1).num_blocks);
  EXPECT_EQ(v1.epoch, epoch1);
  EXPECT_EQ(v2.num_classes, oracle.solve(r2).num_blocks);
  EXPECT_EQ(v2.epoch, epoch2);
}

TEST(FleetServe, StatsCarriesFleetCounters) {
  serve::Server server(make_served_fleet());
  ServerRunner runner(server);
  serve::Client client = serve::Client::connect("127.0.0.1", server.port());
  const std::vector<inc::Edit> e = {inc::Edit::set_f(0, 1)};
  client.fleet_apply(3, e);
  (void)client.fleet_view(4);
  const auto counters = client.stats();
  auto get = [&](const std::string& key) -> u64 {
    for (const auto& [k, v] : counters) {
      if (k == key) return v;
    }
    ADD_FAILURE() << "missing counter " << key;
    return 0;
  };
  EXPECT_EQ(get("fleet_instances"), 2u);
  EXPECT_GE(get("fleet_routes"), 2u);
  EXPECT_EQ(get("fleet_edits"), 1u);
  EXPECT_GE(get("fleet_views"), 1u);
  EXPECT_GT(get("fleet_warm_bytes"), 0u);
}

TEST(FleetServe, ClassicFramesRejectedInFleetMode) {
  serve::Server server(make_served_fleet());
  ServerRunner runner(server);
  serve::Client client = serve::Client::connect("127.0.0.1", server.port());
  EXPECT_THROW((void)client.view(), std::runtime_error);
}

TEST(FleetServe, FleetFramesRejectedInClassicMode) {
  serve::Server server(engines().make("incremental", make_instance(0, 32)));
  ServerRunner runner(server);
  serve::Client client = serve::Client::connect("127.0.0.1", server.port());
  const std::vector<inc::Edit> e = {inc::Edit::set_f(0, 1)};
  EXPECT_THROW((void)client.fleet_apply(1, e), std::runtime_error);
  EXPECT_THROW((void)client.fleet_view(1), std::runtime_error);
}

TEST(FleetServe, InvalidEditRejectedBeforeJournal) {
  serve::Server server(make_served_fleet());
  ServerRunner runner(server);
  serve::Client client = serve::Client::connect("127.0.0.1", server.port());
  const std::vector<inc::Edit> bad = {inc::Edit::set_f(1000000, 0)};  // out of range
  EXPECT_THROW((void)client.fleet_apply(1, bad), std::runtime_error);
  // The connection survives the rejection and the instance is unharmed.
  const std::vector<inc::Edit> good = {inc::Edit::set_f(0, 1)};
  EXPECT_GT(client.fleet_apply(1, good), 0u);
}

TEST(FleetServe, JournalReplaysPerInstanceAcrossRestart) {
  TempDir dir("fleet_journal");
  const std::string wal = (dir.path / "fleet.wal").string();
  core::Solver oracle;
  graph::Instance r1 = make_instance(1, 32), r2 = make_instance(2, 32);
  const std::vector<inc::Edit> e1 = make_edits(r1, 10, 601);
  const std::vector<inc::Edit> e2 = make_edits(r2, 10, 602);
  serve::ServerOptions opt;
  opt.journal_path = wal;
  {
    serve::Server server(make_served_fleet(), opt);
    ServerRunner runner(server);
    serve::Client client = serve::Client::connect("127.0.0.1", server.port());
    client.fleet_apply(1, e1);
    client.fleet_apply(2, e2);
  }
  for (const inc::Edit& e : e1) inc::apply_raw(e, r1.f, r1.b);
  for (const inc::Edit& e : e2) inc::apply_raw(e, r2.f, r2.b);

  // Fresh fleet, same factory: the journal replay must rebuild both
  // instances' states before serving starts.
  serve::Server server(make_served_fleet(), opt);
  ServerRunner runner(server);
  EXPECT_GE(server.stats().recovered_records, 2u);
  serve::Client client = serve::Client::connect("127.0.0.1", server.port());
  EXPECT_EQ(client.fleet_view(1).num_classes, oracle.solve(r1).num_blocks);
  EXPECT_EQ(client.fleet_view(2).num_classes, oracle.solve(r2).num_blocks);
}

}  // namespace
}  // namespace sfcp
