#pragma once
// Per-session execution parameters: the PRAM substrate's replacement for
// process-global configuration.
//
// An ExecutionContext bundles everything one "session" of solving needs —
// thread budget, grain size, metrics sink, RNG seed — so that two callers
// (e.g. two server requests) can run concurrently with different settings
// without trampling each other.  A context is installed on the CURRENT
// THREAD with ScopedContext; pool workers re-install the caller's context
// around every task, so per-element charging in parallel bodies reaches the
// right sink.
//
// Resolution order for every knob: installed context first (field != 0 /
// non-null), then the process-wide defaults in pram/config.hpp.  The old
// set_threads/set_grain/ScopedMetrics globals keep working and act as the
// backwards-compatible default context.
//
// Note one deliberate asymmetry: while a context is installed, its
// `metrics` field is authoritative — null means "don't count", even if a
// global ScopedMetrics sink is active.  That is what isolates one session's
// counters from another's.

#include <cstddef>

#include "pram/metrics.hpp"
#include "pram/types.hpp"

namespace sfcp::prof {
class Profiler;  // prof/profile.hpp
}  // namespace sfcp::prof

namespace sfcp::pram {

class Arena;       // pram/arena.hpp
class WorkerPool;  // pram/worker_pool.hpp

/// Default session seed (used when no context is installed).
inline constexpr u64 kDefaultSeed = 0x5eed5eed5eedull;

struct ExecutionContext {
  int threads = 0;             ///< worker threads; 0 = inherit process default
  std::size_t grain = 0;       ///< min elements per parallel chunk; 0 = inherit
  Metrics* metrics = nullptr;  ///< work/depth sink; null = don't count
  /// Phase-scope sink (prof/profile.hpp).  Unlike `metrics`, null does NOT
  /// mean "don't profile": scope resolution falls through to the process
  /// default installed by prof::ScopedProfiler, so a profiler set at the
  /// top of a run still sees engine internals that install their own
  /// context copies.  No-op unless built with SFCP_PROFILE=ON.
  prof::Profiler* profiler = nullptr;
  /// Base seed for randomized kernels: salts the CRCW hash table's probe
  /// sequence (canonical outputs are seed-independent; see prim/hash_table).
  u64 seed = kDefaultSeed;
  /// Allocation source for arena-aware persistent state (pram/arena.hpp).
  /// Null (the default) means the global heap.  Consumed at construction
  /// time by components that keep long-lived per-node arrays (the
  /// incremental solver); transient scratch stays on the heap regardless.
  Arena* arena = nullptr;
  /// Worker pool the session's parallel rounds run on
  /// (pram/worker_pool.hpp).  Null means the calling thread's default pool
  /// (see session_pool()).  The pool is NOT owned by the context: whoever
  /// installs it (serve::Server, a bench, a test) must keep it alive for as
  /// long as any context copy pointing at it is used.
  WorkerPool* pool = nullptr;

  ExecutionContext& with_threads(int t) noexcept {
    threads = t;
    return *this;
  }
  ExecutionContext& with_grain(std::size_t g) noexcept {
    grain = g;
    return *this;
  }
  ExecutionContext& with_metrics(Metrics* m) noexcept {
    metrics = m;
    return *this;
  }
  ExecutionContext& with_profiler(prof::Profiler* p) noexcept {
    profiler = p;
    return *this;
  }
  ExecutionContext& with_seed(u64 s) noexcept {
    seed = s;
    return *this;
  }
  ExecutionContext& with_arena(Arena* a) noexcept {
    arena = a;
    return *this;
  }
  ExecutionContext& with_pool(WorkerPool* p) noexcept {
    pool = p;
    return *this;
  }
};

namespace detail {
inline thread_local const ExecutionContext* tls_context = nullptr;
/// True on threads owned by a pram::WorkerPool.  Set once at worker spawn,
/// never cleared: pool workers are single-purpose.  config.hpp's threads()
/// reads this to force nested loops serial (one PRAM processor per worker),
/// which keeps work/depth charging identical to a threads=1 run.
inline thread_local bool tls_pool_worker = false;
/// Worker lane index on pool threads (0..workers-1); -1 elsewhere.
inline thread_local int tls_pool_lane = -1;
/// Depth of pool tasks the current thread is running INLINE — the
/// coordinator standing in for a worker (caller-lane drain inside wait(),
/// ring-full/degenerate submit fallbacks, its own share of a fan).  Nonzero
/// pins threads() to 1 exactly like tls_pool_worker does on workers: an
/// inline task is one PRAM processor, whatever session contexts it installs
/// internally (fleet tenants' solvers install their own, pool pointer
/// included), so its nested rounds must run serial instead of re-entering
/// the pool whose wait() is live further up this very stack.
inline thread_local int tls_pool_inline = 0;
}  // namespace detail

/// The context installed on this thread, or null when running under the
/// process-wide defaults.
inline const ExecutionContext* current_context() noexcept { return detail::tls_context; }

/// The active session seed: the installed context's, else kDefaultSeed.
inline u64 session_seed() noexcept {
  const ExecutionContext* c = current_context();
  return c ? c->seed : kDefaultSeed;
}

/// True when the calling thread is a pram::WorkerPool worker.
inline bool on_pool_worker() noexcept { return detail::tls_pool_worker; }

/// Worker lane of the calling thread (0..workers-1), or -1 off-pool — the
/// lane-scratch index allocator-level components use to pick a per-lane
/// stripe (fleet::SlabArena) without depending on worker_pool.hpp.
inline int pool_worker_lane() noexcept { return detail::tls_pool_lane; }

/// True while the calling thread is executing a pool task inline (the
/// coordinator standing in for a worker).  threads() is then pinned to 1,
/// so nested rounds run serial — same rule as on_pool_worker().
inline bool in_pool_inline() noexcept { return detail::tls_pool_inline > 0; }

/// Installs a context on the current thread for the guard's lifetime.
///
/// The reference form stores a COPY, so passing a temporary is safe (later
/// mutations of the original are not seen).  The pointer form rebinds
/// without copying — null means "no context: revert to process defaults
/// within the scope" — and the pointee must outlive the guard; it is what
/// pool workers and the Solver use.
class ScopedContext {
 public:
  explicit ScopedContext(const ExecutionContext& ctx) noexcept
      : copy_(ctx), saved_(detail::tls_context) {
    detail::tls_context = &copy_;
  }
  explicit ScopedContext(const ExecutionContext* ctx) noexcept : saved_(detail::tls_context) {
    detail::tls_context = ctx;
  }
  ~ScopedContext() { detail::tls_context = saved_; }
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  ExecutionContext copy_{};  // engaged only by the reference constructor
  const ExecutionContext* saved_;
};

}  // namespace sfcp::pram
