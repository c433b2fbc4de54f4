#pragma once
// Runtime configuration for the PRAM-style execution substrate.
//
// The paper's algorithms are stated for an arbitrary CRCW PRAM with up to n
// processors.  We realize each PRAM round as one fan over a
// pram::WorkerPool (Brent's scheduling): `threads()` plays the role of p,
// and `grain()` bounds the smallest chunk a thread will take so that tiny
// inputs do not pay dispatch overhead.
//
// Both knobs resolve through the thread-installed ExecutionContext first
// (see pram/execution_context.hpp); the process-wide values below are the
// backwards-compatible default context used when none is installed.

#include <algorithm>
#include <cstddef>
#include <thread>

#include "pram/execution_context.hpp"

namespace sfcp::pram {

/// Process-wide default worker thread count (default: the hardware's).
inline int& thread_count_ref() noexcept {
  static int count = static_cast<int>(std::thread::hardware_concurrency());
  return count;
}

inline int threads() noexcept {
  // A WorkerPool worker is ONE PRAM processor: nested loops on it run
  // serially (no oversubscription, and work/depth charging matches a
  // threads=1 session exactly — see worker_pool.hpp).  The same rule holds
  // while the coordinator runs a pool task inline (caller lane, ring-full
  // fallback): re-entering the pool from inside one of its own tasks would
  // re-drain queues a live wait() further up the stack is iterating.
  if (on_pool_worker() || in_pool_inline()) return 1;
  if (const ExecutionContext* c = current_context(); c && c->threads > 0) return c->threads;
  return std::max(1, thread_count_ref());
}

inline void set_threads(int t) noexcept { thread_count_ref() = std::max(1, t); }

/// Process-wide default minimum number of elements per parallel chunk; loops
/// below this run sequentially.
inline std::size_t& grain_ref() noexcept {
  static std::size_t g = 2048;
  return g;
}

inline std::size_t grain() noexcept {
  if (const ExecutionContext* c = current_context(); c && c->grain > 0) return c->grain;
  return grain_ref();
}

inline void set_grain(std::size_t g) noexcept { grain_ref() = std::max<std::size_t>(1, g); }

/// RAII override of the global thread count (used by tests and ablations).
class ScopedThreads {
 public:
  explicit ScopedThreads(int t) : saved_(threads()) { set_threads(t); }
  ~ScopedThreads() { set_threads(saved_); }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  int saved_;
};

/// RAII override of the global grain size.
class ScopedGrain {
 public:
  explicit ScopedGrain(std::size_t g) : saved_(grain()) { set_grain(g); }
  ~ScopedGrain() { set_grain(saved_); }
  ScopedGrain(const ScopedGrain&) = delete;
  ScopedGrain& operator=(const ScopedGrain&) = delete;

 private:
  std::size_t saved_;
};

}  // namespace sfcp::pram
