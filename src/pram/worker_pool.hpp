#pragma once
// worker_pool.hpp — the persistent worker pool every PRAM round runs on.
//
// A WorkerPool keeps `threads - 1` workers alive for the whole session:
// each worker spins briefly and then parks on a condvar between rounds, is
// fed from its own single-producer/single-consumer task ring, and installs
// its execution context once at spawn — so dispatching a round costs two
// atomic stores per task instead of a thread start.
//
// Surfaces, lowest to highest level:
//
//   submit(slot, fn, env, arg)  enqueue one task on lane `slot % width()`.
//                               Slots give affinity: the same slot always
//                               lands on the same lane (a fleet tenant in
//                               slot s -> lane s % width, so its repairs
//                               revisit the worker whose cache already
//                               holds it).  Lane width()-1 is the CALLER's
//                               lane; its tasks run inside wait().
//   wait()                      run caller-lane tasks, then block until
//                               every submitted task finished.  Rethrows
//                               the first exception any task raised.
//   fan(count, body)            body(i) for i in [0, count): one atomic-
//                               cursor job drained by every worker and the
//                               caller together (no per-item enqueue, so a
//                               million-item fan puts no pressure on the
//                               rings).  Blocks until done; rethrows.
//
// Threading contract: ONE coordinating thread talks to the pool at a time
// (submit/fan/wait) — matching the Engine contract of one apply() caller.
// The rings are SPSC under exactly this contract.  Nested use from inside
// ANY pool task degrades to inline serial execution: a worker is one PRAM
// processor (config.hpp's threads() pins to 1 there), and so is the
// coordinator while it runs a task inline — caller-lane tasks inside
// wait(), ring-full/degenerate submit fallbacks, and its own share of a
// fan all execute under an in_pool_inline() pin, so a task whose body runs
// nested parallel rounds (a tenant repair over a super-grain component)
// can never re-enter submit/fan/wait and re-drain queues the outer wait()
// is still iterating.
//
// Error lifetime: every submit/fan sequence MUST be closed with wait()
// (fan does so internally) before the next sequence begins on this pool.
// Inline fallbacks defer task exceptions to the same first-error slot that
// wait() drains; a sequence abandoned without wait() leaks its error into
// the next, unrelated wait() on the pool.
//
// parallel_for / parallel_blocks run every round on session_pool(): the
// pool of the installed ExecutionContext, else the calling thread's own
// default pool.  A default pool belongs to one thread, so that thread is
// its one coordinator and the SPSC contract holds without a lock.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "pram/execution_context.hpp"

namespace sfcp::pram {

class WorkerPool {
 public:
  /// Plain-function task signature: `env` is caller-owned closure state
  /// (must stay alive until wait() returns), `arg` an item index.
  using RawFn = void (*)(void* env, std::size_t arg);

  /// `threads` is the total parallel width INCLUDING the caller, matching
  /// ExecutionContext::threads; the pool spawns `threads - 1` workers.
  /// 0 resolves pram::threads() at construction.  Workers spawn lazily on
  /// first submit/fan and are joined by the destructor.
  explicit WorkerPool(int threads = 0);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Parallel width: worker count + 1 (the caller participates).
  int width() const noexcept { return nworkers_ + 1; }

  /// True on threads owned by ANY WorkerPool (see execution_context.hpp).
  static bool on_worker() noexcept { return detail::tls_pool_worker; }

  /// This thread's worker lane (0..workers-1), or -1 on non-pool threads.
  /// The caller of submit()/fan() is lane width()-1 by convention.
  static int lane() noexcept { return detail::tls_pool_lane; }

  /// The lane submit() routes `slot` to: `slot % width()`.  Coordinators
  /// that keep per-lane scratch (metrics sinks, arena stripes) index it
  /// with this, so a slot's scratch follows its lane affinity — including
  /// when a ring-full fallback runs the task inline on the coordinator
  /// (the scratch is keyed by slot, not by executing thread, and lane
  /// scratch must therefore tolerate concurrent use, e.g. atomic sinks).
  int lane_of(std::size_t slot) const noexcept {
    return static_cast<int>(slot % static_cast<std::size_t>(width()));
  }

  /// Enqueues one task on lane `slot % width()`.  Captures the caller's
  /// installed ExecutionContext pointer; the worker rebinds it around the
  /// task, so charging/profiling land in the caller's session.  If the
  /// target ring is full the task runs inline on the caller (correctness
  /// over throughput), under the in_pool_inline() pin and with its
  /// exception deferred to wait().  ALWAYS pair with wait(): it is what
  /// collects deferred errors (see the error-lifetime note above).
  void submit(std::size_t slot, RawFn fn, void* env, std::size_t arg);

  /// Convenience: submit a reference to any callable taking (std::size_t).
  /// `body` must outlive wait().
  template <typename Body>
  void submit(std::size_t slot, Body& body, std::size_t arg) {
    submit(
        slot, [](void* env, std::size_t a) { (*static_cast<Body*>(env))(a); },
        static_cast<void*>(&body), arg);
  }

  /// body(i) for every i in [0, count), workers + caller claiming items
  /// from a shared atomic cursor.  Blocks until all items ran; rethrows
  /// the first exception.  Items are unordered; bodies on different items
  /// must be independent (this is a PRAM round).
  template <typename Body>
  void fan(std::size_t count, Body&& body) {
    if (count == 0) return;
    using Decayed = std::decay_t<Body>;
    FanJob job;
    job.count = count;
    job.env = const_cast<void*>(static_cast<const void*>(std::addressof(body)));
    job.run = [](void* env, std::size_t i) { (*static_cast<Decayed*>(env))(i); };
    run_fan_(job);
  }

  /// Runs pending caller-lane tasks, then blocks until every outstanding
  /// task completed.  Rethrows the first captured task exception.
  void wait();

 private:
  struct Task {
    RawFn fn = nullptr;
    void* env = nullptr;
    std::size_t arg = 0;
    const ExecutionContext* ctx = nullptr;  ///< caller's session at submit
  };

  struct FanJob {
    std::atomic<std::size_t> next{0};
    std::size_t count = 0;
    RawFn run = nullptr;
    void* env = nullptr;
  };

  static constexpr std::size_t kRingCap = 1024;  // power of two

  /// One worker's SPSC task ring.  `tail` is written by the coordinating
  /// caller (seq_cst, paired with the sleep protocol), `head` only by the
  /// owning worker.
  struct Lane {
    alignas(64) std::atomic<std::size_t> head{0};
    alignas(64) std::atomic<std::size_t> tail{0};
    std::array<Task, kRingCap> ring;
  };

  void ensure_spawned_();
  void worker_main_(int lane_idx);
  void run_task_(const Task& t) noexcept;  ///< run + record error + count down
  void run_fan_(FanJob& job);
  static void drain_fan_(void* env, std::size_t);
  bool try_push_(Lane& lane, const Task& t) noexcept;
  bool try_pop_(Lane& lane, Task& out) noexcept;
  void wake_sleepers_();
  void record_error_(std::exception_ptr e) noexcept;

  int nworkers_ = 0;
  ExecutionContext base_{};  ///< installed once per worker at spawn
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> threads_;
  std::once_flag spawn_flag_;
  std::atomic<bool> stop_{false};

  std::vector<Task> caller_q_;     ///< lane width()-1; drained by wait()
  std::size_t caller_pos_ = 0;     ///< wait()'s drain cursor into caller_q_.
                                   ///< A member (not a loop-local) so even a
                                   ///< re-entrant wait() cannot replay tasks
                                   ///< that already ran.

  alignas(64) std::atomic<std::size_t> outstanding_{0};
  std::mutex done_mu_;
  std::condition_variable done_cv_;

  std::atomic<int> sleepers_{0};  ///< workers parked (or about to park)
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;

  std::mutex err_mu_;
  std::exception_ptr first_error_;
};

/// The pool the calling thread's rounds run on: the installed context's
/// `pool` if set, else this thread's default pool.  The default pool is
/// built on the thread's first call and rebuilt wider whenever a call asks
/// for more than its width, so it has the widest `width` the thread ever
/// requested.  In a process forked after the pool was built, the pool's
/// workers do not exist: it is dropped unjoined and a new one is built.
WorkerPool& session_pool(int width);

}  // namespace sfcp::pram
