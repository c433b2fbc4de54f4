// Differential fuzzing across every serving engine: the same seeded edit
// stream is driven through every engine in sfcp::engines() plus adaptive
// and pooled IncrementalEngine lanes, and after every batch each engine's
// canonical view must be byte-identical to a fresh core::solve on the evolved
// instance — labels, class count, cycle and kept/residual counters, and the
// edit clock all included.  Runs under the SFCP_SANITIZE CI job; ctest
// label: fuzz (tier-1 stays fast by excluding it).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/coarsest_partition.hpp"
#include "core/solver.hpp"
#include "engine.hpp"
#include "fleet/fleet_engine.hpp"
#include "pram/worker_pool.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

struct Lane {
  std::string name;
  std::unique_ptr<Engine> engine;
  /// Pooled lanes only: the session WorkerPool installed on `engine`.
  /// Never used after the lane's last apply/view, so reverse-order member
  /// destruction (pool first) is safe.
  std::unique_ptr<pram::WorkerPool> pool;
};

/// Every registered engine, plus an adaptive-policy lane — the
/// repair-vs-rebuild crossover is fitted from wall-clock costs, so its
/// decisions are timing-dependent, and views must be byte-identical
/// whichever path was taken — plus pooled lanes.
std::vector<Lane> make_lanes(const graph::Instance& inst) {
  std::vector<Lane> lanes;
  for (const auto& info : engines().all()) {
    lanes.push_back({info.name, engines().make(info.name, inst)});
  }
  inc::RepairPolicy adaptive;
  adaptive.adaptive = true;
  lanes.push_back({"incremental-adaptive",
                   std::make_unique<IncrementalEngine>(graph::Instance(inst),
                                                       core::Options::parallel(),
                                                       pram::ExecutionContext{}, adaptive)});
  // Pooled lanes: an IncrementalEngine on a live WorkerPool at 2 and 8
  // threads.  The grain is far below the default so even these small
  // instances' solve and rebuild rounds split across lanes; the harness
  // checks the canonical views byte-identical to the fresh solve — i.e. to
  // every single-threaded lane (determinism under concurrency).
  for (const int t : {2, 8}) {
    pram::ExecutionContext pctx;
    pctx.threads = t;
    pctx.grain = 64;
    auto pool = std::make_unique<pram::WorkerPool>(t);
    auto engine = std::make_unique<IncrementalEngine>(graph::Instance(inst),
                                                      core::Options::parallel(), pctx);
    engine->install_pool(pool.get());
    lanes.push_back(
        {"incremental-pool-t" + std::to_string(t), std::move(engine), std::move(pool)});
  }
  return lanes;
}

/// Applies `stream` to every lane in `batch`-sized chunks, checking each
/// lane's view against a fresh solve of the reference instance after every
/// chunk.
void run_differential(const graph::Instance& inst, std::span<const inc::Edit> stream,
                      const std::string& what, std::size_t batch = 10) {
  std::vector<Lane> lanes = make_lanes(inst);
  graph::Instance reference = inst;
  core::Solver oracle;  // warm across the per-batch fresh solves
  for (std::size_t i = 0; i < stream.size() || i == 0; i += batch) {
    const auto chunk = stream.subspan(i, std::min(batch, stream.size() - i));
    for (const inc::Edit& e : chunk) inc::apply_raw(e, reference.f, reference.b);
    const core::Result want = oracle.solve(reference);
    const std::string at = what + " after " + std::to_string(i + chunk.size()) + " edits";
    for (Lane& lane : lanes) {
      lane.engine->apply(chunk);
      const core::PartitionView got = lane.engine->view();
      ASSERT_EQ(got.size(), reference.size()) << lane.name << ", " << at;
      ASSERT_EQ(got.num_classes(), want.num_blocks) << lane.name << ", " << at;
      const std::span<const u32> q = got.labels();
      ASSERT_TRUE(std::equal(q.begin(), q.end(), want.q.begin(), want.q.end()))
          << lane.name << " diverged from fresh solve, " << at;
      const core::ViewCounters& c = got.counters();
      ASSERT_EQ(c.num_cycles, want.num_cycles) << lane.name << ", " << at;
      ASSERT_EQ(c.cycle_nodes, want.cycle_nodes) << lane.name << ", " << at;
      ASSERT_EQ(c.kept_tree_nodes, want.kept_tree_nodes) << lane.name << ", " << at;
      ASSERT_EQ(c.residual_tree_nodes, want.residual_tree_nodes) << lane.name << ", " << at;
      // All engines share the state-changing-edits clock.
      ASSERT_EQ(lane.engine->epoch(), lanes[0].engine->epoch()) << lane.name << ", " << at;
      ASSERT_EQ(got.epoch(), lane.engine->epoch()) << lane.name << ", " << at;
    }
    if (stream.empty()) break;
  }
}

void run_mix(graph::Instance inst, util::EditMix mix, std::size_t count, u64 seed,
             const std::string& what) {
  util::Rng rng(seed);
  const auto stream = util::random_edit_stream(inst, count, mix, 6, rng);
  run_differential(inst, stream, what + " seed=" + std::to_string(seed));
}

/// Disjoint union of `blocks` random functional graphs — many independent
/// components, so edits in one never dirty another.
graph::Instance multi_component(std::size_t blocks, std::size_t block_n, u32 num_b, u64 seed) {
  util::Rng rng(seed);
  graph::Instance out;
  out.f.reserve(blocks * block_n);
  out.b.reserve(blocks * block_n);
  for (std::size_t j = 0; j < blocks; ++j) {
    const graph::Instance sub = util::random_function(block_n, num_b, rng);
    const u32 off = static_cast<u32>(j * block_n);
    for (std::size_t i = 0; i < block_n; ++i) {
      out.f.push_back(sub.f[i] + off);
      out.b.push_back(sub.b[i]);
    }
  }
  return out;
}

// ---- the three stream regimes, >= 200 edits each -------------------------

TEST(FuzzDifferential, RandomFunctionLocalized) {
  util::Rng rng(2001);
  run_mix(util::random_function(1600, 4, rng), util::EditMix::LocalizedHotspot, 220, 71,
          "random/localized");
}

TEST(FuzzDifferential, RandomFunctionUniform) {
  util::Rng rng(2002);
  run_mix(util::random_function(1600, 4, rng), util::EditMix::Uniform, 220, 72,
          "random/uniform");
}

TEST(FuzzDifferential, RandomFunctionCycleChurn) {
  util::Rng rng(2003);
  run_mix(util::random_function(1600, 4, rng), util::EditMix::CycleChurn, 200, 73,
          "random/churn");
}

TEST(FuzzDifferential, MultiComponentLocalized) {
  run_mix(multi_component(16, 100, 4, 2004), util::EditMix::LocalizedHotspot, 220, 74,
          "multi/localized");
}

TEST(FuzzDifferential, MultiComponentUniform) {
  run_mix(multi_component(16, 100, 4, 2005), util::EditMix::Uniform, 220, 75, "multi/uniform");
}

TEST(FuzzDifferential, MultiComponentCycleChurn) {
  run_mix(multi_component(16, 100, 4, 2006), util::EditMix::CycleChurn, 200, 76, "multi/churn");
}

TEST(FuzzDifferential, PermutationUniform) {
  util::Rng rng(2007);
  run_mix(util::random_permutation(1200, 3, rng), util::EditMix::Uniform, 220, 77,
          "permutation/uniform");
}

TEST(FuzzDifferential, PermutationCycleChurn) {
  util::Rng rng(2008);
  run_mix(util::random_permutation(1200, 3, rng), util::EditMix::CycleChurn, 200, 78,
          "permutation/churn");
}

TEST(FuzzDifferential, MergeableUniform) {
  util::Rng rng(2009);
  run_mix(util::mergeable(1536, 4, rng), util::EditMix::Uniform, 220, 79, "mergeable/uniform");
}

// ---- edge-of-the-space sweeps --------------------------------------------

// Tiny instances hit every boundary at once: self-loops, n == 1, whole-graph
// dirty regions.
TEST(FuzzDifferential, SmallInstanceSweep) {
  for (std::size_t n = 1; n <= 20; n += 3) {
    for (u64 seed = 1; seed <= 3; ++seed) {
      util::Rng rng(9000 + 17 * n + seed);
      const graph::Instance inst = util::random_function(n, 3, rng);
      util::Rng srng(9100 + 17 * n + seed);
      const auto stream = util::random_edit_stream(inst, 48, util::EditMix::Uniform, 4, srng);
      run_differential(inst, stream,
                       "small n=" + std::to_string(n) + " seed=" + std::to_string(seed),
                       /*batch=*/4);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(FuzzDifferential, EmptyInstance) {
  const graph::Instance inst;
  run_differential(inst, {}, "empty");
}

// ---- loopback serving lane -----------------------------------------------
// The same seeded streams, but routed through a real serve::Server /
// serve::Client TCP loopback instead of direct Engine::apply().  The wire
// must add nothing and lose nothing: after every chunk the LABELS frame's
// canonical labels, class count and epoch are byte-identical to a fresh
// solve of the evolved reference instance, and the SUBSCRIBE feed stays
// monotone and well-formed.

/// Owns the event-loop thread; stops and joins it even when an ASSERT bails
/// out of the lane mid-stream.
struct ServerRunner {
  serve::Server& server;
  std::thread loop;
  explicit ServerRunner(serve::Server& s) : server(s), loop([&s] { s.run(); }) {}
  ~ServerRunner() {
    server.stop();
    loop.join();
  }
};

void run_loopback(const graph::Instance& inst, std::string_view engine_kind,
                  util::EditMix mix, std::size_t count, u64 seed, const std::string& what,
                  std::size_t batch = 16) {
  util::Rng rng(seed);
  const auto stream = util::random_edit_stream(inst, count, mix, 6, rng);

  serve::Server server(engines().make(engine_kind, inst));
  ServerRunner runner(server);
  serve::Client client = serve::Client::connect("127.0.0.1", server.port());
  client.subscribe();

  graph::Instance reference = inst;
  core::Solver oracle;
  // Epoch oracle: the same engine kind applying the same chunks directly —
  // the wire's epoch clock must track in-process serving exactly.
  std::unique_ptr<Engine> ref_engine = engines().make(engine_kind, inst);

  u64 last_notified = 0;
  for (std::size_t i = 0; i < stream.size(); i += batch) {
    const auto chunk = std::span(stream).subspan(i, std::min(batch, stream.size() - i));
    for (const inc::Edit& e : chunk) inc::apply_raw(e, reference.f, reference.b);
    ref_engine->apply(chunk);
    const core::Result want = oracle.solve(reference);
    const std::string at = what + " after " + std::to_string(i + chunk.size()) + " edits";

    const u64 epoch = client.apply(chunk);
    ASSERT_EQ(epoch, ref_engine->epoch()) << at;
    const serve::Client::Labels got = client.labels();
    ASSERT_EQ(got.epoch, epoch) << at;
    ASSERT_EQ(got.num_classes, want.num_blocks) << at;
    ASSERT_EQ(got.labels.size(), want.q.size()) << at;
    ASSERT_TRUE(std::equal(got.labels.begin(), got.labels.end(), want.q.begin(),
                           want.q.end()))
        << "served labels diverged from fresh solve, " << at;

    // Drain the change feed accumulated so far: epochs monotone, classes
    // sorted/deduped and within range (full downgrades carry none).
    while (auto n = client.next_notification(0)) {
      ASSERT_GE(n->epoch, last_notified) << at;
      ASSERT_LE(n->epoch, epoch) << at;
      last_notified = n->epoch;
      if (n->full) {
        ASSERT_TRUE(n->classes.empty()) << at;
      } else {
        ASSERT_FALSE(n->classes.empty()) << at;
        ASSERT_TRUE(std::is_sorted(n->classes.begin(), n->classes.end())) << at;
        ASSERT_TRUE(std::adjacent_find(n->classes.begin(), n->classes.end()) ==
                    n->classes.end())
            << at;
      }
    }
  }
}

TEST(FuzzDifferential, LoopbackIncrementalLocalized) {
  util::Rng rng(41);
  run_loopback(util::random_function(1200, 4, rng), "incremental",
               util::EditMix::LocalizedHotspot, 180, 81, "loopback/incremental/localized");
}

TEST(FuzzDifferential, LoopbackIncrementalCycleChurn) {
  util::Rng rng(42);
  run_loopback(util::random_function(1000, 4, rng), "incremental", util::EditMix::CycleChurn,
               160, 82, "loopback/incremental/churn");
}

TEST(FuzzDifferential, LoopbackBatchUniform) {
  util::Rng rng(43);
  run_loopback(util::random_function(800, 4, rng), "batch", util::EditMix::Uniform, 140, 84,
               "loopback/batch/uniform");
}

// ---- fleet lane ----------------------------------------------------------
// Many small instances behind one fleet::FleetEngine with a warm cap tight
// enough that the interleaved streams constantly evict and fault instances
// back; after every round each touched instance's fleet view must be
// byte-identical to a fresh solve of its own evolved reference instance —
// routing must never cross streams, and tiering must never lose state.

void run_fleet_lane(const std::string& engine_kind, std::size_t instances, u64 seed,
                    int pool_threads = 1, bool batch_heavy = false) {
  fleet::FleetConfig cfg;
  cfg.engine = engine_kind;
  cfg.warm_limit = instances / 8;  // force evict/fault-in churn
  if (pool_threads > 1) cfg.ctx.threads = pool_threads;
  fleet::FleetEngine fleet(std::move(cfg));
  // Pooled variant: cold-batch floods and warm applies fan out on a live
  // WorkerPool; every per-instance view must stay byte-identical to the
  // fresh solve regardless.
  std::unique_ptr<pram::WorkerPool> pool;
  if (pool_threads > 1) {
    pool = std::make_unique<pram::WorkerPool>(pool_threads);
    fleet.install_pool(pool.get());
  }

  util::Rng rng(seed);
  std::vector<graph::Instance> reference(instances);
  std::vector<std::vector<inc::Edit>> streams(instances);
  constexpr std::size_t kRounds = 12;
  for (std::size_t i = 0; i < instances; ++i) {
    reference[i] = util::random_function(30 + rng.below(70), 4, rng);
    util::Rng srng(seed ^ (0x51ab * i + 1));
    streams[i] =
        util::random_edit_stream(reference[i], kRounds, util::EditMix::Uniform, 4, srng);
    fleet.create(i, reference[i]);
  }

  core::Solver oracle;
  for (std::size_t round = 0; round < kRounds; ++round) {
    // Interleave: every instance gets edit `round` of its own stream, as one
    // mixed-instance batch (odd rounds) or per-instance applies (even), so
    // both routing paths carry the same traffic.  batch_heavy sends EVERY
    // round through apply_batch — with a pool that is one warm fan per
    // round, each group racing the next round's caller-lane fault-in churn.
    if (batch_heavy || round % 2 == 1) {
      std::vector<fleet::InstanceEdit> batch;
      batch.reserve(instances);
      for (std::size_t i = 0; i < instances; ++i) batch.push_back({i, streams[i][round]});
      fleet.apply_batch(batch);
    } else {
      for (std::size_t i = 0; i < instances; ++i) {
        fleet.apply(i, {&streams[i][round], 1});
      }
    }
    for (std::size_t i = 0; i < instances; ++i) {
      inc::apply_raw(streams[i][round], reference[i].f, reference[i].b);
    }
    for (std::size_t i = 0; i < instances; ++i) {
      const core::Result want = oracle.solve(reference[i]);
      const core::PartitionView got = fleet.view(i);
      const std::string at = engine_kind + " instance " + std::to_string(i) + " after round " +
                             std::to_string(round);
      ASSERT_EQ(got.num_classes(), want.num_blocks) << at;
      const std::span<const u32> q = got.labels();
      ASSERT_TRUE(std::equal(q.begin(), q.end(), want.q.begin(), want.q.end()))
          << "fleet view diverged from fresh solve, " << at;
    }
  }
  const fleet::FleetStats st = fleet.stats();
  ASSERT_GE(st.evictions, instances) << engine_kind;  // the cap really did churn
  ASSERT_GE(st.faults, instances) << engine_kind;
}

TEST(FuzzDifferential, FleetInterleavedIncremental) { run_fleet_lane("incremental", 64, 3001); }

TEST(FuzzDifferential, FleetInterleavedBatch) { run_fleet_lane("batch", 64, 3002); }

TEST(FuzzDifferential, FleetInterleavedIncrementalPoolT2) {
  run_fleet_lane("incremental", 64, 3004, /*pool_threads=*/2);
}

TEST(FuzzDifferential, FleetInterleavedBatchPoolT8) {
  run_fleet_lane("batch", 64, 3005, /*pool_threads=*/8);
}

// Batch-heavy pooled lanes: every round is one apply_batch, so the warm fan
// runs 12 times over 64 instances against a warm cap of 8 — maximal
// evict/fault churn between barriers at both pool widths.
TEST(FuzzDifferential, FleetWarmFanIncrementalPoolT2) {
  run_fleet_lane("incremental", 64, 3006, /*pool_threads=*/2, /*batch_heavy=*/true);
}

TEST(FuzzDifferential, FleetWarmFanIncrementalPoolT8) {
  run_fleet_lane("incremental", 64, 3007, /*pool_threads=*/8, /*batch_heavy=*/true);
}

TEST(FuzzDifferential, FleetWarmFanBatchPoolT8) {
  run_fleet_lane("batch", 64, 3008, /*pool_threads=*/8, /*batch_heavy=*/true);
}

}  // namespace
}  // namespace sfcp
