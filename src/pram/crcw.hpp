#pragma once
// Concurrent-write primitives emulating the CRCW PRAM write disciplines the
// paper relies on.
//
// * arbitrary CRCW: when several processors write one cell in a round, an
//   arbitrary single writer succeeds.  Emulated with compare-and-swap from a
//   known "empty" sentinel: the first CAS in real time wins, which is a
//   valid "arbitrary" choice.
// * common CRCW: all simultaneous writers write the same value, so a plain
//   relaxed store suffices (used e.g. for flag raising in find_first).

#include <atomic>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "pram/metrics.hpp"

namespace sfcp::pram {

/// Sentinel marking an unwritten cell of an arbitrary-CRCW array.
template <typename T>
inline constexpr T kEmptyCell = std::numeric_limits<T>::max();

/// One round of arbitrary-CRCW write: attempts to publish `value` into
/// `cell`; exactly one concurrent writer per cell succeeds.  Returns the
/// value that ended up in the cell (the winner's value).
template <typename T>
T arbitrary_write(std::atomic<T>& cell, T value) noexcept {
  static_assert(std::is_integral_v<T>, "arbitrary_write requires an integral cell");
  charge_crcw(1);
  T expected = kEmptyCell<T>;
  if (cell.compare_exchange_strong(expected, value, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return value;
  }
  return expected;
}

/// Common-CRCW write: all concurrent writers store the same value.
template <typename T>
void common_write(std::atomic<T>& cell, T value) noexcept {
  cell.store(value, std::memory_order_relaxed);
}

/// Common-CRCW write into a plain cell (e.g. an element of a flag vector):
/// the same relaxed store through std::atomic_ref, so concurrent writers of
/// one value are not a data race.
template <typename T>
void common_write(T& cell, T value) noexcept {
  std::atomic_ref<T>(cell).store(value, std::memory_order_relaxed);
}

/// Arbitrary-CRCW min-combine (used by leader election): the cell converges
/// to the minimum of all values written in the round.
template <typename T>
void min_write(std::atomic<T>& cell, T value) noexcept {
  T cur = cell.load(std::memory_order_relaxed);
  while (value < cur &&
         !cell.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace sfcp::pram
