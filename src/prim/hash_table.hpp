#pragma once
// Concurrent insert-or-get hash table: the practical realization of the
// paper's BB[1..n, 1..n] arbitrary-CRCW table (Algorithm partition, §3.2).
//
// Semantics per round: every processor holding a key writes its proposal;
// an arbitrary single writer per key wins and everybody reading the key
// afterwards sees the winner's value.  The paper's own Remark notes the
// O(n^2) table can be shrunk; open addressing with CAS gives the same
// label-assignment semantics in O(capacity) space.
//
// Keys are arbitrary u64 except kReservedKey; values are u32 (positions).

#include <atomic>
#include <cassert>
#include <cstddef>
#include <memory>
#include <vector>

#include "pram/execution_context.hpp"
#include "pram/metrics.hpp"
#include "pram/parallel_for.hpp"
#include "pram/types.hpp"

namespace sfcp::prim {

/// SplitMix64 finalizer — well-distributed 64-bit hash.
inline u64 hash_u64(u64 x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class ConcurrentPairMap {
 public:
  static constexpr u64 kReservedKey = ~0ull;

  /// Capacity is sized for at most `max_items` distinct keys.  The probe
  /// sequence is salted with the session seed (pram::ExecutionContext), so
  /// an adversarial key set cannot pin every session to one collision
  /// chain; stored keys and insert-or-get semantics are salt-independent,
  /// and so are all canonicalized labellings built on top.
  explicit ConcurrentPairMap(std::size_t max_items, u64 salt = pram::session_seed()) {
    reset(max_items, salt);
  }

  /// An empty table without slots; reset() sizes it.
  ConcurrentPairMap() = default;

  /// Empties the table and sizes it for at most `max_items` distinct keys,
  /// with a fresh salt.  The slots are reallocated only when that changes
  /// the capacity; otherwise clear() rewrites them in place, so a table
  /// kept across same-sized calls skips the allocation and its page faults.
  void reset(std::size_t max_items, u64 salt = pram::session_seed()) {
    std::size_t cap = 16;
    while (cap < 2 * max_items + 8) cap <<= 1;
    if (cap != capacity()) {
      slots_ = std::make_unique_for_overwrite<Slot[]>(cap);
      mask_ = cap - 1;
    }
    salt_ = salt;
    clear();
  }

  std::size_t capacity() const noexcept { return slots_ ? mask_ + 1 : 0; }
  std::size_t bytes() const noexcept { return capacity() * sizeof(Slot); }

  /// Resets all slots to empty, split over the session's pool like a
  /// parallel_for.  Like the allocation it completes, it is set-up rather
  /// than PRAM work (the paper's table needs no initialization), so it
  /// charges no round.  Not safe against concurrent inserts.
  void clear() {
    const std::size_t cap = capacity();
    const int nb = pram::num_blocks(cap);
    const auto reset = [this, cap, nb](std::size_t b) {
      const auto [lo, hi] = pram::block_range(cap, nb, static_cast<int>(b));
      for (std::size_t i = lo; i < hi; ++i) slots_[i] = Slot{kReservedKey, kNone};
    };
    if (nb == 1) {
      reset(0);
    } else {
      pram::session_pool(pram::threads()).fan(static_cast<std::size_t>(nb), reset);
    }
  }

  /// Prefetches the first slot `key` probes, for a caller that knows its
  /// keys a few inserts ahead: the miss then overlaps the inserts between.
  void prefetch(u64 key) const noexcept {
    __builtin_prefetch(&slots_[hash_u64(key ^ salt_) & mask_], 1);
  }

  /// Inserts (key, value) if the key is absent; returns the value that is
  /// associated with the key afterwards (the arbitrary winner's value).
  u32 insert_or_get(u64 key, u32 value) noexcept {
    assert(key != kReservedKey && "key space exhausted sentinel");
    assert(value != kNone);
    pram::charge_crcw(1);
    std::size_t i = hash_u64(key ^ salt_) & mask_;
    for (;;) {
      u64 k = key_at(i).load(std::memory_order_acquire);
      if (k == key) return wait_value(i);
      if (k == kReservedKey) {
        u64 expected = kReservedKey;
        if (key_at(i).compare_exchange_strong(expected, key, std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
          value_at(i).store(value, std::memory_order_release);
          return value;
        }
        if (expected == key) return wait_value(i);
      }
      i = (i + 1) & mask_;
    }
  }

  /// insert_or_get for a caller that has the table to itself for the call,
  /// such as a round that runs as one block: plain loads and stores, since
  /// a locked compare-exchange would first wait for every earlier store of
  /// the caller to drain.
  u32 insert_or_get_unshared(u64 key, u32 value) noexcept {
    assert(key != kReservedKey && "key space exhausted sentinel");
    assert(value != kNone);
    pram::charge_crcw(1);
    std::size_t i = hash_u64(key ^ salt_) & mask_;
    for (;;) {
      const u64 k = key_at(i).load(std::memory_order_relaxed);
      if (k == key) return value_at(i).load(std::memory_order_relaxed);
      if (k == kReservedKey) {
        key_at(i).store(key, std::memory_order_relaxed);
        value_at(i).store(value, std::memory_order_relaxed);
        return value;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Lookup only; kNone if absent.
  u32 find(u64 key) const noexcept {
    assert(key != kReservedKey);
    std::size_t i = hash_u64(key ^ salt_) & mask_;
    for (;;) {
      u64 k = key_at(i).load(std::memory_order_acquire);
      if (k == key) return value_at(i).load(std::memory_order_acquire);
      if (k == kReservedKey) return kNone;
      i = (i + 1) & mask_;
    }
  }

 private:
  // Plain fields behind std::atomic_ref, so allocation leaves the slots
  // uninitialized and clear() is the one pass that writes them.
  struct Slot {
    u64 key;
    u32 value;
  };

  std::atomic_ref<u64> key_at(std::size_t i) const noexcept {
    return std::atomic_ref<u64>(slots_[i].key);
  }
  std::atomic_ref<u32> value_at(std::size_t i) const noexcept {
    return std::atomic_ref<u32>(slots_[i].value);
  }

  u32 wait_value(std::size_t i) const noexcept {
    // The slot's key is published before its value; spin for the tiny
    // window between the two stores.
    u32 v;
    do {
      v = value_at(i).load(std::memory_order_acquire);
    } while (v == kNone);
    return v;
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  u64 salt_ = 0;
};

/// Single-threaded insert-or-get table with ConcurrentPairMap's keys,
/// values and salted probe sequence, in two flat arrays and without atomics:
/// the sequential code paths' replacement for std::unordered_map.
class FlatPairMap {
 public:
  static constexpr u64 kReservedKey = ConcurrentPairMap::kReservedKey;

  explicit FlatPairMap(std::size_t max_items, u64 salt = pram::session_seed()) : salt_(salt) {
    std::size_t cap = 16;
    while (cap < 2 * max_items) cap <<= 1;
    mask_ = cap - 1;
    keys_.assign(cap, kReservedKey);
    values_.resize(cap);
  }

  /// Inserts (key, value) if the key is absent; returns the key's value.
  u32 insert_or_get(u64 key, u32 value) noexcept {
    assert(key != kReservedKey);
    std::size_t i = hash_u64(key ^ salt_) & mask_;
    while (keys_[i] != key) {
      if (keys_[i] == kReservedKey) {
        keys_[i] = key;
        values_[i] = value;
        return value;
      }
      i = (i + 1) & mask_;
    }
    return values_[i];
  }

 private:
  std::vector<u64> keys_;
  std::vector<u32> values_;
  std::size_t mask_ = 0;
  u64 salt_ = 0;
};

}  // namespace sfcp::prim
