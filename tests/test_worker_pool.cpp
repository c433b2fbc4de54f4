// The persistent worker pool behind pram's parallel loops: coverage and
// exactly-once execution, slot→lane affinity, exception propagation,
// nested-parallelism rules (a pool worker is one PRAM processor), pool
// routing of parallel_for/parallel_blocks, the per-thread default pool
// (including across fork()), and — the serving-path contract — shard
// repairs charging the same work/depth at threads=8 on the pool as at
// threads=1.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <numeric>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/coarsest_partition.hpp"
#include "pram/config.hpp"
#include "pram/execution_context.hpp"
#include "pram/metrics.hpp"
#include "pram/parallel_for.hpp"
#include "pram/worker_pool.hpp"
#include "shard/sharded_engine.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

#if defined(__SANITIZE_THREAD__)
// ForkedChildRunsRoundsOnItsOwnDefaultPool starts a pool worker in a child
// forked from a multithreaded parent, which ThreadSanitizer refuses unless
// told otherwise.  The child runs one round and exits.
extern "C" __attribute__((no_sanitize_thread, used, visibility("default"))) const char*
__tsan_default_options() {
  return "die_after_fork=0";
}
#endif

namespace sfcp {
namespace {

TEST(WorkerPool, FanRunsEveryIndexExactlyOnce) {
  pram::WorkerPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.fan(kN, [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(WorkerPool, FanWorksAtWidthOne) {
  pram::WorkerPool pool(1);  // no workers: everything inline on the caller
  EXPECT_EQ(pool.width(), 1);
  std::vector<int> hits(100, 0);
  pool.fan(hits.size(), [&](std::size_t i) { ++hits[i]; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }));
}

TEST(WorkerPool, SubmitWaitRunsEveryTask) {
  pram::WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  auto body = [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); };
  for (std::size_t i = 0; i < hits.size(); ++i) pool.submit(/*slot=*/i, body, i);
  pool.wait();
  for (std::size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1) << "task " << i;
}

TEST(WorkerPool, SlotsKeepLaneAffinity) {
  // slot % width is a fixed lane and each worker lane is one thread, so the
  // same slot must always execute on the same thread across batches.
  pram::WorkerPool pool(3);  // lanes: worker 0, worker 1, caller
  constexpr std::size_t kSlots = 2;  // the two worker lanes
  std::vector<std::thread::id> first(kSlots), second(kSlots);
  auto record_first = [&](std::size_t s) { first[s] = std::this_thread::get_id(); };
  auto record_second = [&](std::size_t s) { second[s] = std::this_thread::get_id(); };
  for (std::size_t s = 0; s < kSlots; ++s) pool.submit(s, record_first, s);
  pool.wait();
  for (std::size_t s = 0; s < kSlots; ++s) pool.submit(s, record_second, s);
  pool.wait();
  for (std::size_t s = 0; s < kSlots; ++s) {
    EXPECT_EQ(first[s], second[s]) << "slot " << s << " hopped lanes";
    EXPECT_NE(first[s], std::this_thread::get_id()) << "worker slot ran on the caller";
  }
  EXPECT_NE(first[0], first[1]) << "distinct slots below width share a lane";
}

TEST(WorkerPool, CallerLaneTasksRunDuringWait) {
  pram::WorkerPool pool(2);  // slot 1 -> caller lane
  std::thread::id ran_on{};
  auto body = [&](std::size_t) { ran_on = std::this_thread::get_id(); };
  pool.submit(/*slot=*/1, body, 0);
  EXPECT_EQ(ran_on, std::thread::id{}) << "caller-lane task ran before wait()";
  pool.wait();
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(WorkerPool, WaitRethrowsFirstTaskException) {
  pram::WorkerPool pool(4);
  auto boom = [](std::size_t i) {
    if (i == 3) throw std::runtime_error("task 3 failed");
  };
  for (std::size_t i = 0; i < 8; ++i) pool.submit(i, boom, i);
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The error was consumed: the pool is reusable afterwards.
  std::atomic<int> ran{0};
  pool.fan(16, [&](std::size_t) { ran.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(ran.load(), 16);
}

TEST(WorkerPool, FanRethrows) {
  pram::WorkerPool pool(4);
  EXPECT_THROW(pool.fan(100,
                        [&](std::size_t i) {
                          if (i == 42) throw std::invalid_argument("bad item");
                        }),
               std::invalid_argument);
}

TEST(WorkerPool, CallerLaneNestedRoundsRunInlineExactlyOnce) {
  // Regression: caller-lane tasks run under the submitting session's
  // context (pool installed, threads > 1), so before the in_pool_inline()
  // pin a nested parallel_for over a super-grain range dispatched
  // fan() -> wait() from INSIDE the outer wait()'s drain loop, replaying
  // already-run caller-lane tasks from index 0 (and re-entrantly re-running
  // the in-flight one).  Nested rounds must instead run serial inline,
  // exactly like on a worker.
  pram::WorkerPool pool(4);
  pram::ExecutionContext ctx;
  ctx.threads = 4;
  ctx.pool = &pool;
  pram::ScopedContext guard(&ctx);
  constexpr std::size_t kTasks = 6;
  constexpr std::size_t kInner = 5000;  // > default grain (2048)
  std::vector<int> hits(kTasks, 0);     // caller lane is serial: plain ints
  std::vector<long> sums(kTasks, 0);
  auto body = [&](std::size_t i) {
    ++hits[i];
    EXPECT_TRUE(pram::in_pool_inline()) << "inline pin missing on caller-lane task";
    EXPECT_EQ(pram::threads(), 1) << "nested rounds not pinned serial";
    long local = 0;  // safe only if the nested loop below stays serial
    pram::parallel_for(0, kInner, [&](std::size_t j) { local += static_cast<long>(j); });
    sums[i] = local;
  };
  // Slot 3 of a width-4 pool is the caller lane; 3 + 4*i stays on it.
  for (std::size_t i = 0; i < kTasks; ++i) pool.submit(3 + 4 * i, body, i);
  pool.wait();
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i], 1) << "caller-lane task " << i << " replayed by a re-entrant wait()";
    EXPECT_EQ(sums[i], static_cast<long>(kInner) * (kInner - 1) / 2) << "task " << i;
  }
}

TEST(WorkerPool, WorkersAreOnePramProcessor) {
  // On a worker: on_pool_worker() is set, threads() pins to 1, and a nested
  // parallel_for runs serially (correct result, no oversubscription) — the
  // explicit inner-level rule for the shard fan-out.  Submitting to slots
  // 0..2 of a width-4 pool deterministically targets the 3 worker lanes.
  pram::WorkerPool pool(4);
  std::atomic<int> violations{0};
  std::atomic<int> checked{0};
  auto body = [&](std::size_t) {
    if (!pram::on_pool_worker() || pram::WorkerPool::lane() < 0 || pram::threads() != 1) {
      violations.fetch_add(1, std::memory_order_relaxed);
    }
    long local = 0;  // safe: the nested loop below is serial on a worker
    pram::parallel_for(0, 1000, [&](std::size_t i) { local += static_cast<long>(i); });
    if (local != 999L * 1000L / 2) violations.fetch_add(1, std::memory_order_relaxed);
    checked.fetch_add(1, std::memory_order_relaxed);
  };
  for (std::size_t slot = 0; slot < 3; ++slot) pool.submit(slot, body, slot);
  pool.wait();
  EXPECT_EQ(checked.load(), 3);
  EXPECT_EQ(violations.load(), 0);
}

TEST(WorkerPool, ParallelForRoutesToPoolAndCharges) {
  pram::WorkerPool pool(4);
  pram::Metrics m;
  pram::ExecutionContext ctx;
  ctx.threads = 4;
  ctx.grain = 16;
  ctx.metrics = &m;
  ctx.pool = &pool;
  pram::ScopedContext guard(&ctx);
  constexpr std::size_t kN = 4096;
  std::vector<u32> out(kN, 0);
  pram::parallel_for(0, kN, [&](std::size_t i) { out[i] = static_cast<u32>(i) * 3; });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(out[i], static_cast<u32>(i) * 3);
  EXPECT_EQ(m.round_count(), 1u);
  EXPECT_EQ(m.ops(), kN);
}

TEST(WorkerPool, ParallelBlocksOnPoolRunsEveryBlock) {
  pram::WorkerPool pool(8);
  pram::ExecutionContext ctx;
  ctx.threads = 8;
  ctx.grain = 4;
  ctx.pool = &pool;
  pram::ScopedContext guard(&ctx);
  constexpr std::size_t kN = 64;
  ASSERT_EQ(pram::num_blocks(kN), 8);
  std::vector<std::atomic<int>> block_hits(8);
  std::vector<std::atomic<int>> elem_hits(kN);
  pram::parallel_blocks(kN, [&](int b, std::size_t lo, std::size_t hi) {
    block_hits[static_cast<std::size_t>(b)].fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = lo; i < hi; ++i) elem_hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t b = 0; b < block_hits.size(); ++b) {
    ASSERT_EQ(block_hits[b].load(), 1) << "block " << b;
  }
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(elem_hits[i].load(), 1) << "element " << i;
}

// ---- parallel_blocks on a pool narrower than the round --------------------
//
// The session asks for 8 threads, so a round splits into 8 blocks, but the
// installed pool is only 2 wide.  Every block must still run exactly once:
// block b is an item of the fan, not bound to the thread that claims it.

TEST(ParallelBlocksThreadLimit, AllBlocksRunWithSmallTeam) {
  pram::WorkerPool pool(2);
  pram::ExecutionContext ctx;
  ctx.threads = 8;
  ctx.grain = 4;  // n=64 with grain 4 and 8 threads -> nb = 8
  ctx.pool = &pool;
  pram::ScopedContext guard(&ctx);
  constexpr std::size_t kN = 64;
  ASSERT_EQ(pram::num_blocks(kN), 8);
  ASSERT_EQ(pool.width(), 2);
  std::vector<std::atomic<int>> block_hits(8);
  std::vector<std::atomic<int>> elem_hits(kN);
  pram::parallel_blocks(kN, [&](int b, std::size_t lo, std::size_t hi) {
    block_hits[static_cast<std::size_t>(b)].fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = lo; i < hi; ++i) elem_hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t b = 0; b < block_hits.size(); ++b) {
    ASSERT_EQ(block_hits[b].load(), 1) << "block " << b << " dropped or repeated";
  }
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(elem_hits[i].load(), 1) << "element " << i;
}

TEST(ParallelBlocksThreadLimit, ScanStyleTwoPassStaysConsistent) {
  // The scan/sort kernel shape: a pass writing per-block partial sums,
  // then a serial combine.  A dropped block leaves a zero column and a
  // silently wrong total.
  pram::WorkerPool pool(2);
  pram::ExecutionContext ctx;
  ctx.threads = 8;
  ctx.grain = 8;
  ctx.pool = &pool;
  pram::ScopedContext guard(&ctx);
  constexpr std::size_t kN = 64;
  const int nb = pram::num_blocks(kN);
  ASSERT_EQ(nb, 8);
  std::vector<u64> partial(static_cast<std::size_t>(nb), 0);
  pram::parallel_blocks(kN, [&](int b, std::size_t lo, std::size_t hi) {
    u64 s = 0;
    for (std::size_t i = lo; i < hi; ++i) s += i;
    partial[static_cast<std::size_t>(b)] = s;
  });
  const u64 total = std::accumulate(partial.begin(), partial.end(), u64{0});
  EXPECT_EQ(total, u64{kN} * (kN - 1) / 2);
}

TEST(WorkerPool, ForkedChildRunsRoundsOnItsOwnDefaultPool) {
  // The parent's rounds run on its thread's default pool, whose worker
  // thread a forked child does not inherit.  The child must build a pool
  // of its own instead of waiting forever on the parent's workers.
  pram::ExecutionContext ctx;
  ctx.threads = 2;
  pram::ScopedContext guard(&ctx);
  constexpr std::size_t kN = 1 << 16;  // past the grain: a pooled round
  std::vector<u32> out(kN, 0);
  const auto round = [&](u32 scale) {
    pram::parallel_for(0, kN, [&](std::size_t i) { out[i] = static_cast<u32>(i) * scale; });
    for (std::size_t i = 0; i < kN; ++i) {
      if (out[i] != static_cast<u32>(i) * scale) return false;
    }
    return true;
  };
  ASSERT_TRUE(round(3));
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::alarm(5);  // a hang dies by SIGALRM instead of stalling the suite
    ::_exit(round(5) ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal " << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0) << "child computed a wrong round";
  EXPECT_TRUE(round(7)) << "parent's pool broken after the fork";
}

// ---- determinism of the pooled shard repair path --------------------------

graph::Instance component_row(std::size_t count, std::size_t size, u64 seed) {
  util::Rng rng(seed);
  graph::Instance inst;
  for (std::size_t j = 0; j < count; ++j) {
    const graph::Instance sub = util::random_function(size, 3, rng);
    const u32 off = static_cast<u32>(j * size);
    for (std::size_t i = 0; i < size; ++i) {
      inst.f.push_back(sub.f[i] + off);
      inst.b.push_back(sub.b[i]);
    }
  }
  return inst;
}

graph::Instance eight_components(u64 seed) { return component_row(8, 100, seed); }

/// set_b edits cycling through the components — shard-routable (never
/// cross-shard), and every batch of `count` dirties all shards, so each
/// apply exercises the pooled fan (not the single-dirty-shard fallback).
std::vector<inc::Edit> spread_edits(std::size_t count, u64 seed, std::size_t comps = 8,
                                    std::size_t size = 100) {
  util::Rng rng(seed);
  std::vector<inc::Edit> edits;
  edits.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const u32 node = static_cast<u32>((i % comps) * size) +
                     rng.below_u32(static_cast<u32>(size));
    edits.push_back(inc::Edit::set_b(node, rng.below_u32(5)));
  }
  return edits;
}

TEST(PoolDeterminism, ShardedChargesAndViewsMatchSingleThread) {
  // Satellite contract: with inner loops forced serial on pool workers, a
  // threads=8 pooled session must charge EXACTLY the rounds and operations
  // of a threads=1 session — and produce byte-identical canonical views.
  const graph::Instance inst = eight_components(42);
  const std::vector<inc::Edit> edits = spread_edits(96, 77);
  shard::ShardOptions sopt;
  sopt.shards = 8;

  pram::Metrics m1;
  pram::ExecutionContext ctx1;
  ctx1.threads = 1;
  ctx1.metrics = &m1;
  shard::ShardedEngine e1(graph::Instance(inst), core::Options::parallel(), ctx1, sopt);

  pram::WorkerPool pool(8);
  pram::Metrics m8;
  pram::ExecutionContext ctx8;
  ctx8.threads = 8;
  ctx8.metrics = &m8;
  shard::ShardedEngine e8(graph::Instance(inst), core::Options::parallel(), ctx8, sopt);
  e8.install_pool(&pool);

  // Compare the APPLY phase as deltas past construction: the constructor's
  // initial solve runs on the calling thread, where kernel selection (e.g.
  // cycle_labeling's outer_parallel crossover) legitimately keys off the
  // session width.  The contract under test is the repair fan — on pool
  // workers threads() pins to 1, so its charges must match threads=1.
  const u64 r1_0 = m1.round_count(), o1_0 = m1.ops();
  const u64 r8_0 = m8.round_count(), o8_0 = m8.ops();
  for (std::size_t i = 0; i < edits.size(); i += 8) {
    const std::size_t len = std::min<std::size_t>(8, edits.size() - i);
    e1.apply(std::span<const inc::Edit>(edits).subspan(i, len));
    e8.apply(std::span<const inc::Edit>(edits).subspan(i, len));
  }

  EXPECT_EQ(m1.round_count() - r1_0, m8.round_count() - r8_0)
      << "depth charge diverged under the pool";
  EXPECT_EQ(m1.ops() - o1_0, m8.ops() - o8_0) << "work charge diverged under the pool";

  const core::PartitionView v1 = e1.view();
  const core::PartitionView v8 = e8.view();
  ASSERT_EQ(v1.num_classes(), v8.num_classes());
  const std::span<const u32> q1 = v1.labels();
  const std::span<const u32> q8 = v8.labels();
  ASSERT_TRUE(std::equal(q1.begin(), q1.end(), q8.begin(), q8.end()))
      << "pooled canonical view diverged from single-threaded";
}

TEST(PoolDeterminism, SuperGrainCallerLaneRepairsMatchSingleThread) {
  // Regression at REALISTIC shard sizes: shards larger than the parallel
  // grain (2048) make a repair's inner rounds parallel-eligible, and with
  // pool width 2 shards 1 and 3 land on the CALLER lane, running inline
  // inside wait().  batch_rebuild_fraction = 0 forces every repair through
  // a full re-solve, guaranteeing super-grain inner rounds.  Before the
  // inline pin those rounds re-entered the pool from the drain loop and
  // replayed completed repair tasks (double-charging and corrupting shard
  // state); charges and views must match the threads=1 session exactly.
  constexpr std::size_t kComponents = 4;
  constexpr std::size_t kSize = 3000;  // > default grain of 2048
  const graph::Instance inst = component_row(kComponents, kSize, 11);
  const std::vector<inc::Edit> edits = spread_edits(32, 13, kComponents, kSize);
  shard::ShardOptions sopt;
  sopt.shards = kComponents;
  sopt.repair.batch_rebuild_fraction = 0.0;  // threshold 1: always rebuild

  pram::Metrics m1;
  pram::ExecutionContext ctx1;
  ctx1.threads = 1;
  ctx1.metrics = &m1;
  shard::ShardedEngine e1(graph::Instance(inst), core::Options::parallel(), ctx1, sopt);

  pram::WorkerPool pool(2);
  pram::Metrics m2;
  pram::ExecutionContext ctx2;
  ctx2.threads = 2;
  ctx2.metrics = &m2;
  // Pool installed from birth (not via install_pool afterwards): the
  // construction solve's super-grain rounds then route to the pool as
  // well, which doubles as TSan coverage — pool dispatch is condvar/atomic
  // based and fully sanitizer-visible, unlike libgomp's barriers.
  ctx2.pool = &pool;
  shard::ShardedEngine e2(graph::Instance(inst), core::Options::parallel(), ctx2, sopt);

  const u64 r1_0 = m1.round_count(), o1_0 = m1.ops();
  const u64 r2_0 = m2.round_count(), o2_0 = m2.ops();
  for (std::size_t i = 0; i < edits.size(); i += kComponents) {
    const std::size_t len = std::min<std::size_t>(kComponents, edits.size() - i);
    e1.apply(std::span<const inc::Edit>(edits).subspan(i, len));
    e2.apply(std::span<const inc::Edit>(edits).subspan(i, len));
  }
  EXPECT_EQ(m1.round_count() - r1_0, m2.round_count() - r2_0)
      << "depth charge diverged (task replayed or nested round forked)";
  EXPECT_EQ(m1.ops() - o1_0, m2.ops() - o2_0) << "work charge diverged under the pool";

  const core::PartitionView v1 = e1.view();
  const core::PartitionView v2 = e2.view();
  ASSERT_EQ(v1.num_classes(), v2.num_classes());
  const std::span<const u32> q1 = v1.labels();
  const std::span<const u32> q2 = v2.labels();
  ASSERT_TRUE(std::equal(q1.begin(), q1.end(), q2.begin(), q2.end()))
      << "super-grain pooled canonical view diverged from single-threaded";
}

TEST(PoolDeterminism, RepairErrorSurfacesFromPooledApply) {
  // An invalid edit throws from validation BEFORE the fan; a logic error
  // inside a pooled repair would surface from wait().  Either way apply()
  // must throw on the calling thread, pool or not.
  const graph::Instance inst = eight_components(7);
  pram::WorkerPool pool(4);
  pram::ExecutionContext ctx;
  ctx.threads = 4;
  shard::ShardedEngine engine(graph::Instance(inst), core::Options::parallel(), ctx, {});
  engine.install_pool(&pool);
  const inc::Edit bad = inc::Edit::set_f(5, 100000);  // target out of range
  EXPECT_THROW(engine.apply({&bad, 1}), std::invalid_argument);
  engine.set_b(5, 9);  // still serviceable
  const core::Result fresh = core::solve(engine.instance());
  const core::PartitionView v = engine.view();
  const std::span<const u32> q = v.labels();
  EXPECT_TRUE(std::equal(q.begin(), q.end(), fresh.q.begin(), fresh.q.end()));
}

}  // namespace
}  // namespace sfcp
