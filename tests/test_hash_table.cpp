// Unit tests for the concurrent insert-or-get table (BB-table emulation).
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "prim/hash_table.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

TEST(HashTable, InsertThenFind) {
  prim::ConcurrentPairMap table(16);
  EXPECT_EQ(table.insert_or_get(100, 1), 1u);
  EXPECT_EQ(table.find(100), 1u);
  EXPECT_EQ(table.find(101), kNone);
}

TEST(HashTable, FirstWriterWins) {
  prim::ConcurrentPairMap table(16);
  EXPECT_EQ(table.insert_or_get(5, 10), 10u);
  EXPECT_EQ(table.insert_or_get(5, 20), 10u);  // existing value returned
}

TEST(HashTable, CapacityIsPowerOfTwoAndRoomy) {
  prim::ConcurrentPairMap table(100);
  EXPECT_GE(table.capacity(), 200u);
  EXPECT_EQ(table.capacity() & (table.capacity() - 1), 0u);
}

TEST(HashTable, ManyDistinctKeys) {
  const std::size_t n = 50000;
  prim::ConcurrentPairMap table(n);
  util::Rng rng(41);
  std::unordered_map<u64, u32> ref;
  for (u32 i = 0; i < n; ++i) {
    const u64 key = rng.below(n / 2);  // ~50% duplicates
    const u32 got = table.insert_or_get(key, i);
    const auto [it, inserted] = ref.emplace(key, got);
    EXPECT_EQ(it->second, got);
  }
  for (const auto& [key, val] : ref) EXPECT_EQ(table.find(key), val);
}

TEST(HashTable, ClearResets) {
  prim::ConcurrentPairMap table(8);
  table.insert_or_get(1, 2);
  table.clear();
  EXPECT_EQ(table.find(1), kNone);
}

TEST(HashTable, ConcurrentInsertConsistency) {
  // All threads race on the same small key set; afterwards every key must
  // have exactly one value, and each returned value must match the final
  // table state (linearizability of insert-or-get).
  const int n_keys = 64;
  const std::size_t per_thread = 20000;
  prim::ConcurrentPairMap table(1 << 12);
  constexpr int kThreads = 4;
  std::vector<std::vector<std::pair<u64, u32>>> observed(kThreads);
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      util::Rng rng(1000 + tid);
      auto& obs = observed[static_cast<std::size_t>(tid)];
      for (std::size_t i = 0; i < per_thread; ++i) {
        const u64 key = rng.below(n_keys);
        const u32 val = static_cast<u32>(tid * per_thread + i + 1);
        obs.emplace_back(key, table.insert_or_get(key, val));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& obs : observed) {
    for (const auto& [key, val] : obs) {
      EXPECT_EQ(table.find(key), val) << "key " << key;
    }
  }
}

}  // namespace
}  // namespace sfcp
