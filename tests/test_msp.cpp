// Unit tests for minimal starting point algorithms (Section 3.1): Booth,
// Duval, brute force, and the paper's simple / efficient parallel
// algorithms, cross-validated on random and adversarial inputs.
#include <gtest/gtest.h>

#include "strings/msp.hpp"
#include "strings/period.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

using strings::canonical_rotation;
using strings::minimal_starting_point;
using strings::msp_booth;
using strings::msp_brute;
using strings::msp_duval;
using strings::msp_efficient;
using strings::msp_simple;
using strings::MspStrategy;
using strings::period_and_msp;
using strings::smallest_period_seq;

TEST(Msp, SingleSymbol) {
  std::vector<u32> s{9};
  for (auto strat : {MspStrategy::Brute, MspStrategy::Booth, MspStrategy::Duval,
                     MspStrategy::Simple, MspStrategy::Efficient}) {
    EXPECT_EQ(minimal_starting_point(s, strat), 0u);
  }
}

TEST(Msp, AlreadyMinimal) {
  std::vector<u32> s{1, 2, 3};
  EXPECT_EQ(msp_booth(s), 0u);
  EXPECT_EQ(msp_simple(s), 0u);
  EXPECT_EQ(msp_efficient(s), 0u);
}

TEST(Msp, SimpleRotation) {
  std::vector<u32> s{3, 1, 2};  // minimal rotation starts at index 1
  EXPECT_EQ(msp_brute(s), 1u);
  EXPECT_EQ(msp_booth(s), 1u);
  EXPECT_EQ(msp_duval(s), 1u);
  EXPECT_EQ(msp_simple(s), 1u);
  EXPECT_EQ(msp_efficient(s), 1u);
}

TEST(Msp, PaperExample34) {
  // (3,2,1,3,2,3,4,3,1,2,3,4,2,1,1,1,3,2,2): the minimum is 1 and the
  // best run of 1s is "1,1,1" at index 13.
  const auto s = util::paper_example_3_4();
  const u32 ref = msp_brute(s);
  EXPECT_EQ(ref, 13u);
  EXPECT_EQ(msp_booth(s), ref);
  EXPECT_EQ(msp_duval(s), ref);
  EXPECT_EQ(msp_simple(s), ref);
  EXPECT_EQ(msp_efficient(s), ref);
}

TEST(Msp, RepeatingStringSmallestIndex) {
  std::vector<u32> s{2, 1, 2, 1};  // rotations at 1 and 3 are minimal
  EXPECT_EQ(minimal_starting_point(s, MspStrategy::Booth), 1u);
  EXPECT_EQ(minimal_starting_point(s, MspStrategy::Simple), 1u);
  EXPECT_EQ(minimal_starting_point(s, MspStrategy::Efficient), 1u);
  EXPECT_EQ(minimal_starting_point(s, MspStrategy::Brute), 1u);
}

TEST(Msp, AllEqualSymbols) {
  std::vector<u32> s(37, 4);
  for (auto strat : {MspStrategy::Booth, MspStrategy::Duval, MspStrategy::Simple,
                     MspStrategy::Efficient}) {
    EXPECT_EQ(minimal_starting_point(s, strat), 0u);
  }
}

TEST(Msp, TieThenDifference) {
  // Two candidate starts share a long prefix; only a late symbol decides.
  std::vector<u32> s{1, 1, 1, 2, 9, 1, 1, 1, 2, 8};
  const u32 ref = msp_brute(s);
  EXPECT_EQ(msp_booth(s), ref);
  EXPECT_EQ(msp_simple(s), ref);
  EXPECT_EQ(msp_efficient(s), ref);
}

class MspRandomSweep : public ::testing::TestWithParam<std::tuple<std::size_t, u32>> {};

TEST_P(MspRandomSweep, AllAlgorithmsAgreeWithBrute) {
  const auto [n, sigma] = GetParam();
  util::Rng rng(n * 1000 + sigma);
  for (int iter = 0; iter < 40; ++iter) {
    const auto s = util::random_string(n, sigma, rng);
    const u32 ref = msp_brute(s);
    EXPECT_EQ(minimal_starting_point(s, MspStrategy::Booth), ref) << "booth n=" << n;
    EXPECT_EQ(minimal_starting_point(s, MspStrategy::Duval), ref) << "duval n=" << n;
    EXPECT_EQ(minimal_starting_point(s, MspStrategy::Simple), ref) << "simple n=" << n;
    EXPECT_EQ(minimal_starting_point(s, MspStrategy::Efficient), ref) << "efficient n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MspRandomSweep,
                         ::testing::Combine(::testing::Values(2, 3, 5, 8, 16, 33, 64, 100),
                                            ::testing::Values(2u, 3u, 10u)));

TEST(Msp, RunsStringsAdversarial) {
  util::Rng rng(211);
  for (int iter = 0; iter < 60; ++iter) {
    const auto s = util::runs_string(80 + rng.below(100), 3, 12, rng);
    const u32 ref = msp_brute(s);
    EXPECT_EQ(minimal_starting_point(s, MspStrategy::Simple), ref);
    EXPECT_EQ(minimal_starting_point(s, MspStrategy::Efficient), ref);
  }
}

TEST(Msp, LargePrimitiveStringsAgree) {
  util::Rng rng(223);
  for (const std::size_t n : {1000u, 5000u, 20000u}) {
    const auto s = util::random_primitive_string(n, 4, rng);
    const u32 booth = msp_booth(s);
    EXPECT_EQ(msp_duval(s), booth);
    EXPECT_EQ(msp_simple(s), booth);
    EXPECT_EQ(msp_efficient(s), booth);
  }
}

TEST(Msp, BinaryAlphabetLongRuns) {
  util::Rng rng(227);
  for (int iter = 0; iter < 30; ++iter) {
    const auto s = util::runs_string(200, 2, 30, rng);
    const u32 ref = msp_brute(s);
    EXPECT_EQ(minimal_starting_point(s, MspStrategy::Efficient), ref) << "iter " << iter;
  }
}

TEST(CanonicalRotation, EqualForAllRotationsOfSameNecklace) {
  util::Rng rng(229);
  const auto s = util::random_primitive_string(257, 3, rng);
  const auto canon = canonical_rotation(s, MspStrategy::Efficient);
  for (const std::size_t shift : {1u, 13u, 100u, 256u}) {
    std::vector<u32> rotated(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) rotated[i] = s[(i + shift) % s.size()];
    EXPECT_EQ(canonical_rotation(rotated, MspStrategy::Booth), canon) << "shift " << shift;
  }
}

TEST(CanonicalRotation, DistinguishesDifferentNecklaces) {
  std::vector<u32> a{1, 2, 1, 3};
  std::vector<u32> b{1, 2, 3, 1};  // different necklace, same multiset
  EXPECT_NE(canonical_rotation(a), canonical_rotation(b));
}

TEST(Msp, EfficientRecursionDepthInputs) {
  // Sizes around powers of two and the n/log n recursion threshold.
  util::Rng rng(233);
  for (const std::size_t n : {63u, 64u, 65u, 127u, 129u, 255u, 511u, 1023u, 4095u}) {
    const auto s = util::random_string(n, 2, rng);
    EXPECT_EQ(minimal_starting_point(s, MspStrategy::Efficient),
              minimal_starting_point(s, MspStrategy::Booth))
        << "n=" << n;
  }
}

// The kernel's m.s.p. against Booth's on the period prefix, for every
// string of length 0 .. max_len over base .. base + sigma - 1.
void expect_msp_matches_booth(u32 base, u32 sigma, std::size_t max_len) {
  for (std::size_t len = 0; len <= max_len; ++len) {
    std::vector<u32> s(len, base);
    for (;;) {
      const std::span<const u32> prefix(s.data(), smallest_period_seq(s));
      ASSERT_EQ(period_and_msp(s).msp, msp_booth(prefix)) << "length " << len;
      std::size_t i = 0;
      while (i < len && s[i] == base + sigma - 1) s[i++] = base;
      if (i == len) break;
      ++s[i];
    }
  }
}

TEST(PeriodAndMsp, MspMatchesBoothOnAllShortStrings) {
  expect_msp_matches_booth(0, 2, 16);
  expect_msp_matches_booth(0, 3, 10);
  // Labels at the top of u32.
  expect_msp_matches_booth(0xFFFFFFFEu, 2, 12);
}

TEST(PeriodAndMsp, MspEdgeCases) {
  EXPECT_EQ(period_and_msp({}).msp, 0u);
  const std::vector<u32> one{0xFFFFFFFFu};
  EXPECT_EQ(period_and_msp(one).msp, 0u);
  const std::vector<u32> same(40, 0xFFFFFFFEu);
  EXPECT_EQ(period_and_msp(same).msp, 0u);
  // Example 3.4's string and its rotations.
  const auto ex = util::paper_example_3_4();
  for (std::size_t r = 0; r < ex.size(); ++r) {
    std::vector<u32> rot(ex.begin() + static_cast<std::ptrdiff_t>(r), ex.end());
    rot.insert(rot.end(), ex.begin(), ex.begin() + static_cast<std::ptrdiff_t>(r));
    EXPECT_EQ(period_and_msp(rot).msp, msp_brute(rot)) << "rotation " << r;
  }
}

TEST(PeriodAndMsp, MspOnLongStrings) {
  util::Rng rng(211);
  for (const u32 sigma : {2u, 3u, 1u << 16}) {
    const auto s = util::random_string(1 << 15, sigma, rng);
    EXPECT_EQ(period_and_msp(s).msp, msp_booth(s)) << "sigma=" << sigma;
  }
  const auto runs = util::runs_string(1 << 14, 3, 32, rng);
  EXPECT_EQ(period_and_msp(runs).msp, msp_booth(runs));
  const auto periodic = util::periodic_string(4000, 250, 2, rng);
  EXPECT_EQ(period_and_msp(periodic).msp,
            msp_booth(std::span<const u32>(periodic).first(smallest_period_seq(periodic))));
}

}  // namespace
}  // namespace sfcp
