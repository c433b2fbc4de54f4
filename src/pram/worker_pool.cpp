#include "pram/worker_pool.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "pram/config.hpp"

namespace sfcp::pram {

namespace {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// How long each side waits for work before parking on the condvar.  A
/// parked worker costs the next round a condvar wake, which on a virtual
/// machine runs to tens of microseconds, and the solve interleaves its
/// rounds with serial stretches of up to about a millisecond (allocating
/// and filling n-sized arrays).  For kPauseFor the wait is a tight pause
/// loop; after that it yields between checks, so a waiting thread hands
/// its CPU to any runnable thread on an oversubscribed machine.
constexpr std::chrono::microseconds kSpinFor{1000};
constexpr std::chrono::microseconds kPauseFor{50};

/// Waits until `ready()` holds or kSpinFor has passed; returns ready().
template <typename Ready>
bool spin_until(Ready ready) {
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    for (int i = 0; i < 64; ++i) {
      if (ready()) return true;
      cpu_relax();
    }
    const auto waited = std::chrono::steady_clock::now() - start;
    if (waited >= kSpinFor) return ready();
    if (waited >= kPauseFor) std::this_thread::yield();
  }
}

/// Marks the scope where the coordinator runs a pool task inline (caller
/// lane inside wait(), ring-full/degenerate submit fallback, its share of a
/// fan).  Pins pram::threads() to 1 and makes submit/fan treat this thread
/// like a worker, so any parallel round the task runs nested — a tenant
/// repair whose solver installs its own pool-carrying context and then
/// parallel_for's over a super-grain component — executes serially instead
/// of re-entering fan() -> wait() and re-draining caller_q_ mid-iteration.
/// TLS, not context sanitization, because tasks are free to install
/// arbitrary session contexts internally.
class InlineTaskGuard {
 public:
  InlineTaskGuard() noexcept { ++detail::tls_pool_inline; }
  ~InlineTaskGuard() { --detail::tls_pool_inline; }
  InlineTaskGuard(const InlineTaskGuard&) = delete;
  InlineTaskGuard& operator=(const InlineTaskGuard&) = delete;
};

}  // namespace

WorkerPool::WorkerPool(int threads) {
  const int t = threads > 0 ? threads : pram::threads();
  nworkers_ = std::max(0, t - 1);
  base_.threads = t;
  base_.pool = this;  // session_pool() on a worker resolves to its owner
}

WorkerPool::~WorkerPool() {
  // Finish whatever is in flight first: task envs live on caller stacks
  // and must not be touched after those frames unwind.  Errors no one
  // waited for are dropped (a destructor cannot throw).
  try {
    wait();
  } catch (...) {
  }
  if (threads_.empty()) return;
  stop_.store(true, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lk(sleep_mu_);
  }
  sleep_cv_.notify_all();
  for (std::thread& th : threads_) {
    if (th.joinable()) th.join();
  }
}

void WorkerPool::ensure_spawned_() {
  std::call_once(spawn_flag_, [this] {
    if (nworkers_ <= 0) return;
    lanes_.reserve(static_cast<std::size_t>(nworkers_));
    for (int w = 0; w < nworkers_; ++w) lanes_.push_back(std::make_unique<Lane>());
    threads_.reserve(static_cast<std::size_t>(nworkers_));
    for (int w = 0; w < nworkers_; ++w) threads_.emplace_back([this, w] { worker_main_(w); });
  });
}

void WorkerPool::worker_main_(int lane_idx) {
  detail::tls_pool_worker = true;
  detail::tls_pool_lane = lane_idx;
  // Install the pool's base context ONCE for the worker's lifetime; each
  // task then rebinds the submitting session's context, which is a pair of
  // pointer stores, not a re-registration (profiler thread buffers attach
  // lazily and persist).
  const ScopedContext base_guard(&base_);
  Lane& lane = *lanes_[static_cast<std::size_t>(lane_idx)];
  for (;;) {
    Task t;
    if (try_pop_(lane, t)) {
      run_task_(t);
      continue;
    }
    if (spin_until([&] { return try_pop_(lane, t); })) {
      run_task_(t);
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    // Park.  The seq_cst sleepers_ increment before the final emptiness
    // check pairs with submit()'s seq_cst tail store before its sleepers_
    // load: either the producer sees us (and notifies under the mutex), or
    // the predicate sees the task.  No lost wakeups.
    std::unique_lock<std::mutex> lk(sleep_mu_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    sleep_cv_.wait(lk, [&] {
      return stop_.load(std::memory_order_seq_cst) ||
             lane.tail.load(std::memory_order_seq_cst) !=
                 lane.head.load(std::memory_order_relaxed);
    });
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

void WorkerPool::run_task_(const Task& t) noexcept {
  try {
    const ScopedContext guard(t.ctx);  // null reverts to process defaults
    t.fn(t.env, t.arg);
  } catch (...) {
    record_error_(std::current_exception());
  }
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lk(done_mu_);
    done_cv_.notify_all();
  }
}

bool WorkerPool::try_push_(Lane& lane, const Task& t) noexcept {
  const std::size_t tail = lane.tail.load(std::memory_order_relaxed);
  const std::size_t head = lane.head.load(std::memory_order_acquire);
  if (tail - head >= kRingCap) return false;
  lane.ring[tail & (kRingCap - 1)] = t;
  lane.tail.store(tail + 1, std::memory_order_seq_cst);
  return true;
}

bool WorkerPool::try_pop_(Lane& lane, Task& out) noexcept {
  const std::size_t head = lane.head.load(std::memory_order_relaxed);
  const std::size_t tail = lane.tail.load(std::memory_order_acquire);
  if (head == tail) return false;
  out = lane.ring[head & (kRingCap - 1)];
  lane.head.store(head + 1, std::memory_order_release);
  return true;
}

void WorkerPool::wake_sleepers_() {
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
  {
    std::lock_guard<std::mutex> lk(sleep_mu_);
  }
  sleep_cv_.notify_all();
}

void WorkerPool::record_error_(std::exception_ptr e) noexcept {
  std::lock_guard<std::mutex> lk(err_mu_);
  if (!first_error_) first_error_ = std::move(e);
}

void WorkerPool::submit(std::size_t slot, RawFn fn, void* env, std::size_t arg) {
  ensure_spawned_();
  const Task t{fn, env, arg, current_context()};
  if (nworkers_ == 0 || on_worker() || in_pool_inline()) {
    // Degenerate width or nested use from inside a pool task (worker or
    // coordinator-inline): one PRAM processor — run inline, nested rounds
    // pinned serial.  Errors still surface at wait() for uniform semantics.
    try {
      const InlineTaskGuard inline_guard;
      t.fn(t.env, t.arg);
    } catch (...) {
      record_error_(std::current_exception());
    }
    return;
  }
  const int lane_of_slot = lane_of(slot);
  if (lane_of_slot == nworkers_) {
    caller_q_.push_back(t);  // the caller's own lane: runs inside wait()
    return;
  }
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  if (!try_push_(*lanes_[static_cast<std::size_t>(lane_of_slot)], t)) {
    outstanding_.fetch_sub(1, std::memory_order_relaxed);
    // Ring full: run inline on the coordinator.  The inline pin keeps the
    // task's nested rounds from re-entering the pool mid-submission loop
    // (which would drain caller_q_ before the batch is fully enqueued).
    try {
      const InlineTaskGuard inline_guard;
      const ScopedContext guard(t.ctx);
      t.fn(t.env, t.arg);
    } catch (...) {
      record_error_(std::current_exception());
    }
    return;
  }
  wake_sleepers_();
}

void WorkerPool::wait() {
  // Run the caller lane while workers chew on theirs.  The drain advances a
  // MEMBER cursor, not a loop-local index: tasks run under the inline pin,
  // so they cannot legally re-enter wait(), but if one ever does anyway the
  // re-entrant drain continues from the cursor instead of replaying (and
  // re-entrantly double-running) tasks the outer drain already started.
  while (caller_pos_ < caller_q_.size()) {
    const Task t = caller_q_[caller_pos_++];
    try {
      const InlineTaskGuard inline_guard;
      const ScopedContext guard(t.ctx);
      t.fn(t.env, t.arg);
    } catch (...) {
      record_error_(std::current_exception());
    }
  }
  caller_q_.clear();
  caller_pos_ = 0;
  const auto done = [&] { return outstanding_.load(std::memory_order_acquire) == 0; };
  if (!spin_until(done)) {
    std::unique_lock<std::mutex> lk(done_mu_);
    done_cv_.wait(lk, done);
  }
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lk(err_mu_);
    err = std::exchange(first_error_, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

void WorkerPool::drain_fan_(void* env, std::size_t /*unused*/) {
  auto* job = static_cast<FanJob*>(env);
  for (;;) {
    const std::size_t i = job->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job->count) return;
    job->run(job->env, i);
  }
}

void WorkerPool::run_fan_(FanJob& job) {
  ensure_spawned_();
  if (nworkers_ == 0 || on_worker() || in_pool_inline()) {
    // One PRAM processor (degenerate width, a worker, or the coordinator
    // already inside an inline task): claim every item serially, nested
    // rounds pinned serial too.
    const InlineTaskGuard inline_guard;
    for (std::size_t i = 0; i < job.count; ++i) job.run(job.env, i);
    return;
  }
  const ExecutionContext* ctx = current_context();
  // One drain task per worker lane (capped by item count): each claims
  // items off the shared cursor until dry.  No per-item ring traffic.
  const int fanout =
      static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(nworkers_), job.count));
  for (int w = 0; w < fanout; ++w) {
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    const Task t{&WorkerPool::drain_fan_, &job, 0, ctx};
    if (!try_push_(*lanes_[static_cast<std::size_t>(w)], t)) {
      outstanding_.fetch_sub(1, std::memory_order_relaxed);
      continue;  // that lane is backlogged; the cursor covers its share
    }
  }
  wake_sleepers_();
  // The caller is a claimant too — one PRAM processor like the workers, so
  // its share runs under the inline pin.  It must not unwind past `job`
  // (stack-owned, workers still read it) on an exception, so capture and
  // let wait() rethrow after the barrier.
  try {
    const InlineTaskGuard inline_guard;
    drain_fan_(&job, 0);
  } catch (...) {
    record_error_(std::current_exception());
  }
  wait();
}

namespace {

/// A thread's default pool and the process that built it.
struct DefaultPool {
  std::unique_ptr<WorkerPool> pool;
  pid_t owner = 0;
  /// A pool inherited through fork() has no workers in this process, and
  /// joining them would hang: drop it unjoined.
  void forget_if_forked() {
    if (owner != ::getpid()) (void)pool.release();
  }
  ~DefaultPool() { forget_if_forked(); }
};

thread_local DefaultPool tls_default_pool;

}  // namespace

WorkerPool& session_pool(int width) {
  if (const ExecutionContext* c = current_context(); c != nullptr && c->pool != nullptr) {
    return *c->pool;
  }
  DefaultPool& d = tls_default_pool;
  d.forget_if_forked();
  if (d.pool == nullptr || d.pool->width() < width) {
    d.pool = std::make_unique<WorkerPool>(width);
    d.owner = ::getpid();
  }
  return *d.pool;
}

}  // namespace sfcp::pram
