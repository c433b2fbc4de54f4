// Unit tests for the stable LSD radix sort (the Bhatt et al. [4] stand-in).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "pram/config.hpp"
#include "pram/execution_context.hpp"
#include "prim/integer_sort.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

TEST(IntegerSort, Empty) {
  std::vector<u64> keys;
  EXPECT_TRUE(prim::sort_order_by_key(keys).empty());
}

TEST(IntegerSort, Single) {
  std::vector<u64> keys{42};
  EXPECT_EQ(prim::sort_order_by_key(keys), (std::vector<u32>{0}));
}

TEST(IntegerSort, SmallKnown) {
  std::vector<u64> keys{3, 1, 2, 1};
  const auto order = prim::sort_order_by_key(keys);
  EXPECT_EQ(order, (std::vector<u32>{1, 3, 2, 0}));  // stable: 1@1 before 1@3
}

TEST(IntegerSort, StabilityOnEqualKeys) {
  std::vector<u64> keys(1000, 7);
  const auto order = prim::sort_order_by_key(keys);
  std::vector<u32> expected(1000);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(IntegerSort, RadixPasses) {
  EXPECT_EQ(prim::radix_passes(0), 1);
  EXPECT_EQ(prim::radix_passes(255), 1);
  EXPECT_EQ(prim::radix_passes(256), 2);
  EXPECT_EQ(prim::radix_passes(~0ull), 8);
}

TEST(IntegerSort, InPlaceWithValues) {
  std::vector<u64> keys{5, 2, 9, 2};
  std::vector<u32> vals{0, 1, 2, 3};
  prim::radix_sort(keys, &vals);
  EXPECT_EQ(keys, (std::vector<u64>{2, 2, 5, 9}));
  EXPECT_EQ(vals, (std::vector<u32>{1, 3, 0, 2}));
}

TEST(IntegerSort, LargeKeysFullWidth) {
  util::Rng rng(17);
  std::vector<u64> keys(20000);
  for (auto& k : keys) k = rng.next();
  std::vector<u64> ref = keys;
  std::sort(ref.begin(), ref.end());
  prim::radix_sort(keys);
  EXPECT_EQ(keys, ref);
}

class IntegerSortSweep : public ::testing::TestWithParam<std::tuple<std::size_t, u64>> {};

TEST_P(IntegerSortSweep, MatchesStdStableSort) {
  const auto [n, key_bound] = GetParam();
  util::Rng rng(n ^ key_bound);
  std::vector<u64> keys(n);
  for (auto& k : keys) k = rng.below(key_bound);
  std::vector<u32> ref(n);
  std::iota(ref.begin(), ref.end(), 0u);
  std::stable_sort(ref.begin(), ref.end(), [&](u32 a, u32 b) { return keys[a] < keys[b]; });
  for (const std::size_t grain : {64u, 1u << 22}) {
    pram::ScopedGrain g(grain);
    EXPECT_EQ(prim::sort_order_by_key(keys), ref) << "n=" << n << " bound=" << key_bound;
  }
  // Several blocks per digit pass, each with its own histogram row.
  for (const int threads : {2, 4}) {
    const pram::ScopedContext pooled(
        pram::ExecutionContext{}.with_threads(threads).with_grain(64));
    EXPECT_EQ(prim::sort_order_by_key(keys), ref)
        << "n=" << n << " bound=" << key_bound << " threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IntegerSortSweep,
    ::testing::Combine(::testing::Values(1, 2, 100, 4096, 50000),
                       ::testing::Values(u64{2}, u64{16}, u64{1} << 8, u64{1} << 16,
                                         u64{1} << 32)));

}  // namespace
}  // namespace sfcp
