#include "fleet/slab_arena.hpp"

#include <bit>
#include <functional>
#include <new>
#include <thread>

#include "pram/execution_context.hpp"

namespace sfcp::fleet {

SlabArena::~SlabArena() { trim(); }

std::size_t SlabArena::class_of_(std::size_t bytes, std::size_t align) noexcept {
  if (align > alignof(std::max_align_t)) return kNumClasses;
  const std::size_t want = bytes < kMinBlock ? kMinBlock : std::bit_ceil(bytes);
  const std::size_t cls = static_cast<std::size_t>(std::countr_zero(want / kMinBlock));
  return cls < kNumClasses ? cls : kNumClasses;
}

std::size_t SlabArena::home_stripe_() noexcept {
  // Pool workers home by lane so a lane's evict/fault churn stays on one
  // stripe; everything else (the fleet caller, other threads) hashes its
  // thread id, which is stable per thread and spreads across stripes.
  const int lane = pram::pool_worker_lane();
  if (lane >= 0) return static_cast<std::size_t>(lane) & (kStripes - 1);
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) & (kStripes - 1);
}

void* SlabArena::allocate(std::size_t bytes, std::size_t align) {
  if (bytes == 0) bytes = 1;
  const std::size_t cls = class_of_(bytes, align);
  if (cls == kNumClasses) {
    // Too big or too aligned to pool: exact pass-through to the heap.
    void* p = ::operator new(bytes, std::align_val_t(align));
    allocs_.fetch_add(1, std::memory_order_relaxed);
    live_blocks_.fetch_add(1, std::memory_order_relaxed);
    live_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    return p;
  }
  const std::size_t block = kMinBlock << cls;
  const std::size_t home = home_stripe_();
  for (std::size_t k = 0; k < kStripes; ++k) {
    Stripe& st = stripes_[(home + k) & (kStripes - 1)];
    std::lock_guard<std::mutex> lock(st.mu);
    if (st.pool[cls].empty()) continue;
    void* p = st.pool[cls].back();
    st.pool[cls].pop_back();
    allocs_.fetch_add(1, std::memory_order_relaxed);
    reuses_.fetch_add(1, std::memory_order_relaxed);
    live_blocks_.fetch_add(1, std::memory_order_relaxed);
    live_bytes_.fetch_add(block, std::memory_order_relaxed);
    pooled_bytes_.fetch_sub(block, std::memory_order_relaxed);
    return p;
  }
  allocs_.fetch_add(1, std::memory_order_relaxed);
  live_blocks_.fetch_add(1, std::memory_order_relaxed);
  live_bytes_.fetch_add(block, std::memory_order_relaxed);
  return ::operator new(block);
}

void SlabArena::deallocate(void* p, std::size_t bytes, std::size_t align) noexcept {
  if (p == nullptr) return;
  if (bytes == 0) bytes = 1;
  const std::size_t cls = class_of_(bytes, align);
  if (cls == kNumClasses) {
    ::operator delete(p, std::align_val_t(align));
    frees_.fetch_add(1, std::memory_order_relaxed);
    live_blocks_.fetch_sub(1, std::memory_order_relaxed);
    live_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    return;
  }
  const std::size_t block = kMinBlock << cls;
  frees_.fetch_add(1, std::memory_order_relaxed);
  live_blocks_.fetch_sub(1, std::memory_order_relaxed);
  live_bytes_.fetch_sub(block, std::memory_order_relaxed);
  Stripe& st = stripes_[home_stripe_()];
  std::lock_guard<std::mutex> lock(st.mu);
  // push_back can throw bad_alloc in theory; a noexcept deallocate must not.
  try {
    st.pool[cls].push_back(p);
    pooled_bytes_.fetch_add(block, std::memory_order_relaxed);
  } catch (...) {
    ::operator delete(p);
  }
}

void SlabArena::trim() {
  for (Stripe& st : stripes_) {
    std::lock_guard<std::mutex> lock(st.mu);
    for (std::size_t cls = 0; cls < kNumClasses; ++cls) {
      auto& pool = st.pool[cls];
      if (pool.empty()) continue;
      pooled_bytes_.fetch_sub(pool.size() * (kMinBlock << cls), std::memory_order_relaxed);
      for (void* p : pool) ::operator delete(p);
      pool.clear();
      pool.shrink_to_fit();
    }
  }
}

SlabArena::Stats SlabArena::stats() const {
  Stats s;
  s.live_bytes = live_bytes_.load(std::memory_order_relaxed);
  s.pooled_bytes = pooled_bytes_.load(std::memory_order_relaxed);
  s.live_blocks = live_blocks_.load(std::memory_order_relaxed);
  s.allocs = allocs_.load(std::memory_order_relaxed);
  s.frees = frees_.load(std::memory_order_relaxed);
  s.reuses = reuses_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace sfcp::fleet
