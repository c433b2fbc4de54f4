// Unit tests for cycle-node detection, including the paper's §5 Euler-tour
// method, cross-validated against the sequential reference.
#include <gtest/gtest.h>

#include "graph/cycle_detect.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

using graph::CycleDetectStrategy;
using graph::find_cycle_nodes;

const auto kAll = {CycleDetectStrategy::Sequential, CycleDetectStrategy::FunctionPowers,
                   CycleDetectStrategy::EulerTour};

TEST(CycleDetect, SelfLoop) {
  std::vector<u32> f{0};
  for (auto strat : kAll) {
    EXPECT_EQ(find_cycle_nodes(f, strat), (std::vector<u8>{1})) << static_cast<int>(strat);
  }
}

TEST(CycleDetect, SelfLoopWithTail) {
  std::vector<u32> f{0, 0, 1};
  for (auto strat : kAll) {
    EXPECT_EQ(find_cycle_nodes(f, strat), (std::vector<u8>{1, 0, 0}));
  }
}

TEST(CycleDetect, TwoCycle) {
  std::vector<u32> f{1, 0};
  for (auto strat : kAll) {
    EXPECT_EQ(find_cycle_nodes(f, strat), (std::vector<u8>{1, 1}));
  }
}

TEST(CycleDetect, PaperFig1) {
  const auto inst = util::paper_example_2_2();
  for (auto strat : kAll) {
    const auto flags = find_cycle_nodes(inst.f, strat);
    // Fig. 1: all 16 nodes lie on the two cycles.
    for (u32 x = 0; x < 16; ++x) EXPECT_EQ(flags[x], 1) << "node " << x;
  }
}

TEST(CycleDetect, StarIntoSelfLoop) {
  // Many leaves pointing at one self-loop node (high indegree).
  const std::size_t n = 1000;
  std::vector<u32> f(n, 0);
  for (auto strat : kAll) {
    const auto flags = find_cycle_nodes(f, strat);
    EXPECT_EQ(flags[0], 1);
    for (u32 x = 1; x < n; ++x) EXPECT_EQ(flags[x], 0);
  }
}

class CycleDetectSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CycleDetectSweep, AllStrategiesMatchSequential) {
  const std::size_t n = GetParam();
  util::Rng rng(n * 13);
  for (int iter = 0; iter < 20; ++iter) {
    const auto inst = util::random_function(n, 3, rng);
    const auto ref = find_cycle_nodes(inst.f, CycleDetectStrategy::Sequential);
    EXPECT_EQ(find_cycle_nodes(inst.f, CycleDetectStrategy::FunctionPowers), ref)
        << "powers n=" << n << " iter=" << iter;
    EXPECT_EQ(find_cycle_nodes(inst.f, CycleDetectStrategy::EulerTour), ref)
        << "euler n=" << n << " iter=" << iter;
  }
  // Euler cycles no ruling-set splitter lands on.
  const auto adversary = util::splitter_free_cycle(n, 3, rng);
  const auto ref = find_cycle_nodes(adversary.f, CycleDetectStrategy::Sequential);
  EXPECT_EQ(find_cycle_nodes(adversary.f, CycleDetectStrategy::FunctionPowers), ref) << "n=" << n;
  EXPECT_EQ(find_cycle_nodes(adversary.f, CycleDetectStrategy::EulerTour), ref) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, CycleDetectSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 17, 100, 512, 2047));

TEST(CycleDetect, EulerOnShapedInstances) {
  util::Rng rng(601);
  const auto shapes = {
      util::long_tail(3000, 5, 3, rng),
      util::bushy(3000, 7, 3, 3, rng),
      util::random_permutation(3000, 3, rng),
      util::mergeable(3000, 4, rng),
  };
  for (const auto& inst : shapes) {
    const auto ref = find_cycle_nodes(inst.f, CycleDetectStrategy::Sequential);
    EXPECT_EQ(find_cycle_nodes(inst.f, CycleDetectStrategy::EulerTour), ref);
  }
}

TEST(CycleDetect, LargeRandomAgreement) {
  util::Rng rng(607);
  const auto inst = util::random_function(100000, 5, rng);
  const auto ref = find_cycle_nodes(inst.f, CycleDetectStrategy::Sequential);
  EXPECT_EQ(find_cycle_nodes(inst.f, CycleDetectStrategy::FunctionPowers), ref);
  EXPECT_EQ(find_cycle_nodes(inst.f, CycleDetectStrategy::EulerTour), ref);
}

}  // namespace
}  // namespace sfcp
