// Unit tests for cycle-node detection, including the paper's §5 Euler-tour
// method, cross-validated against the sequential reference.
#include <gtest/gtest.h>

#include "graph/cycle_detect.hpp"
#include "pram/execution_context.hpp"
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

// The whole partition build_euler_partition_into writes: preimage lists,
// the arc successor permutation and its inverse `pred`, and per arc its
// Euler cycle's leader (minimum arc) and, only when f is not a permutation,
// its rank from the leader.  When f has tree nodes the Euler detector
// leaves the same partition behind.
void expect_partition_consistent(const std::vector<u32>& f) {
  const std::size_t n = f.size();
  graph::EulerPartition arcs;
  graph::build_euler_partition_into(f, arcs);
  bool permutation = true;
  for (u32 v = 0; v < n; ++v) permutation &= arcs.preimages(v).size() == 1;
  ASSERT_EQ(arcs.ranked, !permutation);
  ASSERT_EQ(arcs.succ.size(), 2 * n);
  std::vector<u8> hit(2 * n, 0);
  for (u32 a = 0; a < 2 * n; ++a) {
    const u32 b = arcs.succ[a];
    ASSERT_LT(b, 2 * n);
    EXPECT_EQ(hit[b]++, 0) << "two arcs precede arc " << b;
    // b leaves the node a enters.
    const u32 head = a % 2 == 0 ? f[a / 2] : a / 2;
    const u32 tail = b % 2 == 0 ? b / 2 : f[b / 2];
    EXPECT_EQ(tail, head) << "arc " << a;
    EXPECT_EQ(arcs.pred(f, b), a);
    EXPECT_EQ(arcs.leader[b], arcs.leader[a]);
    EXPECT_LE(arcs.leader[a], a);
    if (!arcs.ranked) continue;
    EXPECT_EQ(arcs.pos[b], arcs.leader[b] == b ? 0 : arcs.pos[a] + 1) << "arc " << a;
  }
  if (permutation) return;
  std::vector<u8> on_cycle;
  graph::EulerPartition detected;
  graph::find_cycle_nodes_into(f, CycleDetectStrategy::EulerTour, on_cycle, detected);
  EXPECT_EQ(on_cycle, find_cycle_nodes(f, CycleDetectStrategy::Sequential));
  EXPECT_TRUE(detected.ranked);
  EXPECT_EQ(detected.pre_off, arcs.pre_off);
  EXPECT_EQ(detected.pre, arcs.pre);
  EXPECT_EQ(detected.succ, arcs.succ);
  EXPECT_EQ(detected.leader, arcs.leader);
  EXPECT_EQ(detected.pos, arcs.pos);
}

TEST(CycleDetect, EulerPartitionIsRankedUnlessPermutation) {
  util::Rng rng(131);
  expect_partition_consistent({0});
  expect_partition_consistent({1, 0});
  expect_partition_consistent({0, 0, 1});
  expect_partition_consistent(util::random_function(3000, 3, rng).f);
  expect_partition_consistent(util::random_permutation(3000, 3, rng).f);
  const pram::ScopedContext pooled(pram::ExecutionContext{}.with_threads(2).with_grain(64));
  expect_partition_consistent(util::random_function(5000, 3, rng).f);
  expect_partition_consistent(util::long_tail(5000, 4, 2, rng).f);
  expect_partition_consistent(util::random_permutation(5000, 3, rng).f);
}

// On a permutation the Euler detector marks every node and stops at the
// preimage lists: pre[v] is v's one preimage, nothing is ranked and succ
// and leader are empty, their capacity kept for the next instance.
TEST(CycleDetect, EulerDetectorStopsAtPreimageListsOnPermutation) {
  util::Rng rng(137);
  const auto trees = util::random_function(4000, 3, rng);
  for (const int threads : {1, 2, 4}) {
    const pram::ScopedContext pooled(
        pram::ExecutionContext{}.with_threads(threads).with_grain(64));
    for (const std::size_t n : {1u, 2u, 777u, 4000u}) {
      const auto f = util::random_permutation(n, 3, rng).f;
      std::vector<u8> on_cycle;
      graph::EulerPartition arcs;
      graph::find_cycle_nodes_into(trees.f, CycleDetectStrategy::EulerTour, on_cycle, arcs);
      ASSERT_TRUE(arcs.ranked);
      const u32* succ = arcs.succ.data();
      graph::find_cycle_nodes_into(f, CycleDetectStrategy::EulerTour, on_cycle, arcs);
      EXPECT_EQ(on_cycle, std::vector<u8>(n, 1)) << "n=" << n;
      EXPECT_FALSE(arcs.ranked);
      EXPECT_TRUE(arcs.succ.empty());
      EXPECT_TRUE(arcs.leader.empty());
      EXPECT_EQ(arcs.succ.data(), succ) << "succ reallocated";
      ASSERT_EQ(arcs.pre_off.size(), n + 1);
      ASSERT_EQ(arcs.pre.size(), n);
      for (u32 x = 0; x < n; ++x) {
        ASSERT_EQ(arcs.pre_off[x], x);
        ASSERT_EQ(arcs.pre[f[x]], x);
      }
      EXPECT_EQ(arcs.pre_off[n], n);
      // The same partition builds a tree instance's in full again.
      graph::find_cycle_nodes_into(trees.f, CycleDetectStrategy::EulerTour, on_cycle, arcs);
      EXPECT_EQ(on_cycle, find_cycle_nodes(trees.f, CycleDetectStrategy::Sequential));
      EXPECT_TRUE(arcs.ranked);
      EXPECT_EQ(arcs.succ.size(), 2 * trees.size());
    }
  }
}

}  // namespace
}  // namespace sfcp
