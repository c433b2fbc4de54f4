// Sharded edit throughput: edits/sec vs. shard count against the single
// warm IncrementalSolver, on a many-component instance.  Each measured unit
// is one apply() of a round-sized batch over streams that are
// component-local (no batch rewires f across components — the serving
// traffic sharding targets):
//
//   * localized — fine-grained leaf edits interleaved across all
//     components.  Per-edit repair cost is identical for both engines, so
//     the sharded win here is the parallel fan-out across shards (scales
//     with cores; parity on one).
//   * uniform   — per-component uniform edits, interleaved.  Bigger dirty
//     regions, same story.
//   * burst     — one round = an n/16-edit burst of uniform edits confined
//     to ONE (rotating) component.  Both engines' RepairPolicy correctly
//     answers with a rebuild, but the single solver re-solves all n nodes
//     while the sharded engine rebuilds one shard: the O(n) -> O(n/k)
//     asymmetry that holds on any core count.
//
// BM_*EditsView variants add a view() per round — batch ingestion plus a
// merged snapshot, the full serving contract.
//
// BM_*PerEditView variants are the fine-grained serving path the delta
// pipeline optimizes: ONE edit + one view() per measured unit.  The merge
// layer must reconcile at O(dirty classes) per view (the edit's repair
// delta), not O(dirty shard); these keys are recorded to BENCH_delta.json
// in CI and diffed by tools/bench_diff.py.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "inc/incremental_solver.hpp"
#include "pram/worker_pool.hpp"
#include "shard/sharded_engine.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace {

using namespace sfcp;

constexpr std::size_t kComponents = 64;
constexpr std::size_t kNodes = std::size_t{1} << 17;
constexpr std::size_t kRounds = 96;  // pre-generated rounds, replayed cyclically

enum class Stream { Localized, Uniform, Burst };

struct Workload {
  graph::Instance inst;
  std::vector<std::vector<inc::Edit>> rounds;
  std::size_t edits_per_round = 0;
};

/// Disjoint union of kComponents bushy pseudo-trees (contiguous id blocks,
/// each one weakly-connected component with many in-degree-0 leaves).  A
/// random function would fracture each block into several components and
/// sprinkle cross-component set_f edits through the streams, measuring
/// migration cost instead of repair throughput.
Workload make_workload(Stream stream) {
  const std::size_t block = kNodes / kComponents;
  util::Rng rng(0x5a4d + static_cast<u64>(stream));
  Workload w;
  w.inst.f.reserve(kNodes);
  w.inst.b.reserve(kNodes);
  std::vector<graph::Instance> subs;
  subs.reserve(kComponents);
  for (std::size_t j = 0; j < kComponents; ++j) {
    subs.push_back(util::bushy(block, 16, 6, 4, rng));
    const u32 off = static_cast<u32>(j * block);
    for (std::size_t i = 0; i < block; ++i) {
      w.inst.f.push_back(subs[j].f[i] + off);
      w.inst.b.push_back(subs[j].b[i]);
    }
  }
  const auto offset_into = [&](std::vector<inc::Edit> edits, std::size_t j,
                               std::vector<inc::Edit>& out) {
    const u32 off = static_cast<u32>(j * block);
    for (inc::Edit& e : edits) {
      e.node += off;
      if (e.kind == inc::Edit::Kind::SetF) e.value += off;
      out.push_back(e);
    }
  };

  w.rounds.resize(kRounds);
  if (stream == Stream::Burst) {
    // One uniform burst per round, confined to a rotating component; sized
    // to trip both engines' batch-rebuild path (n/16).
    w.edits_per_round = kNodes / 16;
    for (std::size_t r = 0; r < kRounds; ++r) {
      const std::size_t j = r % kComponents;
      util::Rng srng(0xb0b0 + 131 * r);
      offset_into(util::random_edit_stream(subs[j], w.edits_per_round, util::EditMix::Uniform,
                                           6, srng),
                  j, w.rounds[r]);
    }
    return w;
  }

  // Fine-grained streams: per-component generation, interleaved round-robin
  // so every shard sees work in every round.
  w.edits_per_round = 1024;
  const util::EditMix mix =
      stream == Stream::Localized ? util::EditMix::LocalizedHotspot : util::EditMix::Uniform;
  const std::size_t total = kRounds * w.edits_per_round;
  const std::size_t per_comp = total / kComponents;
  std::vector<std::vector<inc::Edit>> streams(kComponents);
  for (std::size_t j = 0; j < kComponents; ++j) {
    util::Rng srng(0xbeef + 31 * j + static_cast<u64>(mix));
    offset_into(util::random_edit_stream(subs[j], per_comp, mix, 6, srng), j, streams[j]);
  }
  std::size_t comp = 0, used = 0;
  for (auto& round : w.rounds) {
    round.reserve(w.edits_per_round);
    for (std::size_t i = 0; i < w.edits_per_round; ++i) {
      round.push_back(streams[comp][used]);
      if (++comp == kComponents) {
        comp = 0;
        ++used;
      }
    }
  }
  return w;
}

const Workload& workload(Stream stream) {
  static const Workload localized = make_workload(Stream::Localized);
  static const Workload uniform = make_workload(Stream::Uniform);
  static const Workload burst = make_workload(Stream::Burst);
  switch (stream) {
    case Stream::Localized: return localized;
    case Stream::Uniform: return uniform;
    default: return burst;
  }
}

void BM_ShardedEdits(benchmark::State& state, Stream stream, std::size_t shards,
                     bool view_per_round) {
  const Workload& w = workload(stream);
  shard::ShardOptions sopt;
  sopt.shards = shards;
  shard::ShardedEngine engine(graph::Instance(w.inst), core::Options::parallel(), {}, sopt);
  benchmark::DoNotOptimize(engine.view().num_classes());
  std::size_t round = 0;
  for (auto _ : state) {
    engine.apply(w.rounds[round]);
    if (view_per_round) {
      benchmark::DoNotOptimize(engine.view().num_classes());
    } else {
      benchmark::DoNotOptimize(engine.epoch());
    }
    if (++round == kRounds) round = 0;
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(w.edits_per_round));
}

void BM_ShardedPerEditView(benchmark::State& state, Stream stream, std::size_t shards) {
  const Workload& w = workload(stream);
  shard::ShardOptions sopt;
  sopt.shards = shards;
  shard::ShardedEngine engine(graph::Instance(w.inst), core::Options::parallel(), {}, sopt);
  benchmark::DoNotOptimize(engine.view().num_classes());
  std::size_t round = 0, at = 0;
  for (auto _ : state) {
    const inc::Edit e = w.rounds[round][at];
    engine.apply({&e, 1});
    benchmark::DoNotOptimize(engine.view().num_classes());
    if (++at == w.rounds[round].size()) {
      at = 0;
      if (++round == kRounds) round = 0;
    }
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}

/// Threads-scaling on the persistent worker pool: a k=8 sharded engine with
/// a WorkerPool of width t installed, so per-epoch repair fans dispatch to
/// its parked workers.  t=1 runs poolless (serial fan) and anchors the speedup ratio bench_diff.py reports for the
/// /t2 /t4 /t8 keys.  CI records these to BENCH_pool.json; on a one-core
/// runner the ratios sit near 1x (the fan is latency-, not
/// bandwidth-bound there — see README "Parallel serving").
void BM_PoolShardedEdits(benchmark::State& state, Stream stream, int threads) {
  const Workload& w = workload(stream);
  shard::ShardOptions sopt;
  sopt.shards = 8;
  pram::ExecutionContext ctx;
  ctx.threads = threads;
  std::unique_ptr<pram::WorkerPool> pool;
  if (threads > 1) {
    pool = std::make_unique<pram::WorkerPool>(threads);
    ctx.pool = pool.get();
  }
  shard::ShardedEngine engine(graph::Instance(w.inst), core::Options::parallel(), ctx, sopt);
  if (pool) engine.install_pool(pool.get());
  benchmark::DoNotOptimize(engine.view().num_classes());
  std::size_t round = 0;
  for (auto _ : state) {
    engine.apply(w.rounds[round]);
    benchmark::DoNotOptimize(engine.epoch());
    if (++round == kRounds) round = 0;
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(w.edits_per_round));
}

void BM_SingleSolverPerEditView(benchmark::State& state, Stream stream) {
  const Workload& w = workload(stream);
  inc::IncrementalSolver solver(graph::Instance(w.inst));
  benchmark::DoNotOptimize(solver.view().num_classes());
  std::size_t round = 0, at = 0;
  for (auto _ : state) {
    const inc::Edit e = w.rounds[round][at];
    solver.apply({&e, 1});
    benchmark::DoNotOptimize(solver.view().num_classes());
    if (++at == w.rounds[round].size()) {
      at = 0;
      if (++round == kRounds) round = 0;
    }
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}

void BM_SingleSolverEdits(benchmark::State& state, Stream stream, bool view_per_round) {
  const Workload& w = workload(stream);
  inc::IncrementalSolver solver(graph::Instance(w.inst));
  benchmark::DoNotOptimize(solver.view().num_classes());
  std::size_t round = 0;
  for (auto _ : state) {
    solver.apply(w.rounds[round]);
    if (view_per_round) {
      benchmark::DoNotOptimize(solver.view().num_classes());
    } else {
      benchmark::DoNotOptimize(solver.epoch());
    }
    if (++round == kRounds) round = 0;
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(w.edits_per_round));
}

const int kRegistered = [] {
  const std::pair<const char*, Stream> streams[] = {
      {"localized", Stream::Localized},
      {"uniform", Stream::Uniform},
      {"burst", Stream::Burst},
  };
  for (const auto& [stream_name, stream] : streams) {
    benchmark::RegisterBenchmark(
        (std::string("BM_SingleSolverEdits/k1/") + stream_name).c_str(), BM_SingleSolverEdits,
        stream, false)
        ->Unit(benchmark::kMillisecond);
    for (const std::size_t k :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      benchmark::RegisterBenchmark(
          (std::string("BM_ShardedEdits/k") + std::to_string(k) + "/" + stream_name).c_str(),
          BM_ShardedEdits, stream, k, false)
          ->Unit(benchmark::kMillisecond);
    }
    // Pool threads-scaling keys (BENCH_pool.json): thread count is a name
    // segment so it lands in the record's strategy key, not `threads`.
    for (const int t : {1, 2, 4, 8}) {
      benchmark::RegisterBenchmark((std::string("BM_PoolShardedEdits/k8/t") + std::to_string(t) +
                                    "/" + stream_name)
                                       .c_str(),
                                   BM_PoolShardedEdits, stream, t)
          ->Unit(benchmark::kMillisecond);
    }
    benchmark::RegisterBenchmark(
        (std::string("BM_SingleSolverEditsView/k1/") + stream_name).c_str(),
        BM_SingleSolverEdits, stream, true)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        (std::string("BM_ShardedEditsView/k8/") + stream_name).c_str(), BM_ShardedEdits,
        stream, std::size_t{8}, true)
        ->Unit(benchmark::kMillisecond);
    // Per-edit view latency (the delta path).  Burst rounds are rebuild
    // storms by construction, so only the fine-grained streams make sense
    // one edit at a time.
    if (stream != Stream::Burst) {
      benchmark::RegisterBenchmark(
          (std::string("BM_SingleSolverPerEditView/k1/") + stream_name).c_str(),
          BM_SingleSolverPerEditView, stream)
          ->Unit(benchmark::kMicrosecond);
      benchmark::RegisterBenchmark(
          (std::string("BM_ShardedPerEditView/k8/") + stream_name).c_str(),
          BM_ShardedPerEditView, stream, std::size_t{8})
          ->Unit(benchmark::kMicrosecond);
    }
  }
  return 0;
}();

}  // namespace
