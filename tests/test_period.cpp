// Unit tests for smallest repeating prefix (period) finding.
#include <gtest/gtest.h>

#include "strings/msp.hpp"
#include "strings/period.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

using strings::is_repeating;
using strings::period_and_msp;
using strings::RankTable;
using strings::smallest_period_parallel;
using strings::smallest_period_seq;

u32 period_brute(std::span<const u32> s) {
  const std::size_t n = s.size();
  for (u32 p = 1; p <= n; ++p) {
    if (n % p != 0) continue;
    bool ok = true;
    for (std::size_t i = p; i < n && ok; ++i) ok = s[i] == s[i - p];
    if (ok) return p;
  }
  return static_cast<u32>(n);
}

TEST(Period, Empty) {
  std::vector<u32> s;
  EXPECT_EQ(smallest_period_seq(s), 0u);
}

TEST(Period, SingleSymbol) {
  std::vector<u32> s{5};
  EXPECT_EQ(smallest_period_seq(s), 1u);
  EXPECT_FALSE(is_repeating(s));
}

TEST(Period, AllEqual) {
  std::vector<u32> s(16, 3);
  EXPECT_EQ(smallest_period_seq(s), 1u);
  EXPECT_TRUE(is_repeating(s));
}

TEST(Period, Primitive) {
  std::vector<u32> s{1, 2, 3, 4};
  EXPECT_EQ(smallest_period_seq(s), 4u);
  EXPECT_FALSE(is_repeating(s));
}

TEST(Period, PaperExample31) {
  // B-label string of cycle C in Example 3.1: (1,2,1,3) repeated 3 times.
  std::vector<u32> s{1, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1, 3};
  EXPECT_EQ(smallest_period_seq(s), 4u);
}

TEST(Period, NonDividingBorderIsNotAPeriod) {
  // "aba" has border "a" but 2 does not divide 3 -> primitive.
  std::vector<u32> s{1, 2, 1};
  EXPECT_EQ(smallest_period_seq(s), 3u);
}

TEST(Period, SequentialMatchesBruteRandom) {
  util::Rng rng(101);
  for (int iter = 0; iter < 300; ++iter) {
    const std::size_t p = 1 + rng.below(8);
    const std::size_t reps = 1 + rng.below(6);
    auto s = util::periodic_string(p * reps, p, 3, rng);
    EXPECT_EQ(smallest_period_seq(s), period_brute(s)) << "iter " << iter;
  }
}

TEST(Period, ParallelMatchesSequentialRandom) {
  util::Rng rng(103);
  for (int iter = 0; iter < 100; ++iter) {
    const std::size_t p = 1 + rng.below(12);
    const std::size_t reps = 1 + rng.below(8);
    auto s = util::periodic_string(p * reps, p, 2 + rng.below_u32(4), rng);
    EXPECT_EQ(smallest_period_parallel(s), smallest_period_seq(s)) << "iter " << iter;
  }
}

TEST(Period, ParallelOnLargeString) {
  util::Rng rng(107);
  auto s = util::periodic_string(1 << 14, 1 << 5, 3, rng);
  EXPECT_EQ(smallest_period_parallel(s), smallest_period_seq(s));
}

TEST(RankTableTest, EqualSubstrings) {
  //            0  1  2  3  4  5  6  7
  std::vector<u32> s{1, 2, 1, 2, 1, 2, 3, 1};
  const RankTable t(s);
  EXPECT_TRUE(t.equal(0, 2, 2));   // "12" == "12"
  EXPECT_TRUE(t.equal(0, 2, 4));   // "1212" == "1212"
  EXPECT_FALSE(t.equal(0, 1, 2));  // "12" != "21"
  EXPECT_FALSE(t.equal(2, 4, 3));  // "121" != "123"
  EXPECT_TRUE(t.equal(3, 3, 5));   // identity
}

TEST(RankTableTest, RandomAgainstDirectCompare) {
  util::Rng rng(109);
  auto s = util::random_string(500, 3, rng);
  const RankTable t(s);
  for (int iter = 0; iter < 2000; ++iter) {
    const u32 len = 1 + rng.below_u32(100);
    const u32 i = rng.below_u32(static_cast<u32>(s.size()) - len + 1);
    const u32 j = rng.below_u32(static_cast<u32>(s.size()) - len + 1);
    const bool ref = std::equal(s.begin() + i, s.begin() + i + len, s.begin() + j);
    EXPECT_EQ(t.equal(i, j, len), ref) << "i=" << i << " j=" << j << " len=" << len;
  }
}

class PeriodSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PeriodSweep, SequentialAndParallelAgree) {
  const std::size_t n = GetParam();
  util::Rng rng(n);
  for (u32 sigma : {1u, 2u, 4u}) {
    auto s = util::random_string(n, sigma, rng);
    EXPECT_EQ(smallest_period_parallel(s), smallest_period_seq(s))
        << "n=" << n << " sigma=" << sigma;
    EXPECT_EQ(smallest_period_seq(s), period_brute(s));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PeriodSweep, ::testing::Values(1, 2, 3, 4, 6, 12, 60, 64, 96, 120));

// Calls check(s) for every string of length 0 .. max_len over the symbols
// base .. base + sigma - 1.
template <typename Check>
void for_each_string(u32 base, u32 sigma, std::size_t max_len, Check&& check) {
  for (std::size_t len = 0; len <= max_len; ++len) {
    std::vector<u32> s(len, base);
    for (;;) {
      check(std::span<const u32>(s));
      std::size_t i = 0;
      while (i < len && s[i] == base + sigma - 1) s[i++] = base;
      if (i == len) break;
      ++s[i];
    }
  }
}

TEST(PeriodAndMsp, PeriodMatchesKmpOnAllShortStrings) {
  std::size_t strings = 0;
  const auto check = [&](std::span<const u32> s) {
    ++strings;
    ASSERT_EQ(period_and_msp(s).period, smallest_period_seq(s)) << "length " << s.size();
  };
  for_each_string(0, 2, 16, check);
  for_each_string(0, 3, 10, check);
  EXPECT_EQ(strings, 131071u + 88573u);
}

TEST(PeriodAndMsp, PeriodEdgeCases) {
  EXPECT_EQ(period_and_msp({}).period, 0u);
  const std::vector<u32> one{7};
  EXPECT_EQ(period_and_msp(one).period, 1u);
  for (const u32 x : {0u, 5u, 0xFFFFFFFFu}) {
    const std::vector<u32> same(37, x);
    EXPECT_EQ(period_and_msp(same).period, 1u) << x;
  }
  // Comparisons are unsigned up to the top of u32.
  for_each_string(0xFFFFFFFEu, 2, 12, [](std::span<const u32> s) {
    ASSERT_EQ(period_and_msp(s).period, smallest_period_seq(s)) << "length " << s.size();
  });
}

TEST(PeriodAndMsp, PeriodOnLongStrings) {
  util::Rng rng(113);
  for (const std::size_t p : {1u, 3u, 64u, 999u}) {
    const auto s = util::periodic_string(p * 7, p, 3, rng);
    EXPECT_EQ(period_and_msp(s).period, smallest_period_seq(s)) << "p=" << p;
  }
  const auto primitive = util::random_primitive_string(5000, 2, rng);
  EXPECT_EQ(period_and_msp(primitive).period, 5000u);
}

}  // namespace
}  // namespace sfcp
