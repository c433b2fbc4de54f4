// The persistent worker pool behind pram's parallel loops: coverage and
// exactly-once execution, slot→lane affinity, exception propagation,
// nested-parallelism rules (a pool worker is one PRAM processor), pool
// routing of parallel_for/parallel_blocks, the per-thread default pool
// (including across fork()), and errors from a pooled engine's apply()
// surfacing on the calling thread.
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
#include "engine.hpp"
#include "pram/config.hpp"
#include "pram/execution_context.hpp"
#include "pram/metrics.hpp"
#include "pram/parallel_for.hpp"
#include "pram/worker_pool.hpp"
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
  // explicit inner-level rule for pooled tasks such as the fleet's warm fan.
  // Submitting to slots 0..2 of a width-4 pool deterministically targets the
  // 3 worker lanes.
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

// ---- errors from a pooled engine -----------------------------------------

TEST(PoolDeterminism, RepairErrorSurfacesFromPooledApply) {
  // An invalid edit throws from validation BEFORE any pooled round; a logic
  // error inside a pooled round would surface from wait().  Either way
  // apply() must throw on the calling thread, pool or not.
  util::Rng rng(7);
  pram::WorkerPool pool(4);
  pram::ExecutionContext ctx;
  ctx.threads = 4;
  IncrementalEngine engine(util::random_function(800, 3, rng), core::Options::parallel(), ctx);
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
