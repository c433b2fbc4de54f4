// Unit tests for Section 4: tree node labelling (all strategy combinations
// against the refinement oracle).
#include <gtest/gtest.h>

#include "core/baselines.hpp"
#include "core/coarsest_partition.hpp"
#include "core/verify.hpp"
#include "pram/execution_context.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

using core::Options;
using core::solve;
using core::solve_naive_refinement;
using core::TreeLabelStrategy;

Options with(TreeLabelStrategy ts) {
  Options o = Options::parallel();
  o.tree_labeling.strategy = ts;
  return o;
}

const TreeLabelStrategy kTree[] = {TreeLabelStrategy::LevelSynchronous,
                                   TreeLabelStrategy::AncestorDoubling,
                                   TreeLabelStrategy::SequentialDFS};

TEST(TreeLabeling, KeptNodeCopiesCycleLabel) {
  // Self-loop 0 with b=7; tree node 1 -> 0 with b=7 matches the cycle label
  // string, so it must merge with node 0.
  graph::Instance inst{{0, 0}, {7, 7}};
  for (auto ts : kTree) {
    const auto r = solve(inst, with(ts));
    EXPECT_EQ(r.q[0], r.q[1]) << static_cast<int>(ts);
    EXPECT_EQ(r.num_blocks, 1u);
  }
}

TEST(TreeLabeling, MismatchedNodeGetsFreshLabel) {
  graph::Instance inst{{0, 0}, {7, 8}};
  for (auto ts : kTree) {
    const auto r = solve(inst, with(ts));
    EXPECT_NE(r.q[0], r.q[1]);
    EXPECT_EQ(r.num_blocks, 2u);
  }
}

TEST(TreeLabeling, DescendantOfMismatchNeverMerges) {
  // 2 -> 1 -> 0(self).  b: 0 and 2 match, 1 differs: node 2's path has a
  // mismatch, so 2 must NOT take the cycle label even though b[2] == b[0].
  graph::Instance inst{{0, 0, 1}, {7, 8, 7}};
  for (auto ts : kTree) {
    const auto r = solve(inst, with(ts));
    EXPECT_NE(r.q[2], r.q[0]) << static_cast<int>(ts);
    EXPECT_EQ(r.num_blocks, 3u);
  }
}

TEST(TreeLabeling, WrapAroundCorrespondence) {
  // Cycle (0 1 2) with labels (1 2 3); a path of 5 nodes hangs off node 0.
  // Level l matches cycle node f^{3 - l mod 3}(0): exercises the mod-k wrap
  // in Lemma 4.1.
  graph::Instance inst;
  inst.f = {1, 2, 0, 0, 3, 4, 5, 6};
  //        b of cycle: 1,2,3 ; tree path must match b[f^{k-l}(r)]
  // level1 node (3): corresponding f^{2}(0)=2 -> b=3; level2 (4): f^{1}(0)=1 -> b=2;
  // level3 (5): f^{0}... = (3 - 3%3)%3 -> rank 0 -> b=1; level4 (6): b=3; level5 (7): b=2.
  inst.b = {1, 2, 3, 3, 2, 1, 3, 2};
  for (auto ts : kTree) {
    const auto r = solve(inst, with(ts));
    // Whole path matches: everything merges with cycle labels.
    EXPECT_EQ(r.num_blocks, 3u) << static_cast<int>(ts);
    EXPECT_EQ(r.q[3], r.q[2]);
    EXPECT_EQ(r.q[4], r.q[1]);
    EXPECT_EQ(r.q[5], r.q[0]);
    EXPECT_EQ(r.q[6], r.q[2]);
    EXPECT_EQ(r.q[7], r.q[1]);
  }
}

TEST(TreeLabeling, ResidualSiblingsWithEqualBMerge) {
  // Two residual children of the same cycle node with equal B-labels that
  // do NOT match the cycle: they must share one fresh label (Lemma 4.2).
  graph::Instance inst{{0, 0, 0}, {1, 9, 9}};
  for (auto ts : kTree) {
    const auto r = solve(inst, with(ts));
    EXPECT_EQ(r.q[1], r.q[2]);
    EXPECT_NE(r.q[1], r.q[0]);
    EXPECT_EQ(r.num_blocks, 2u);
  }
}

TEST(TreeLabeling, ResidualCrossTreeMergeRequiresSameAnchor) {
  // Two separate self-loops with DIFFERENT cycle labels; each has a child
  // with b=9.  Children have equal path strings but different anchor
  // Q-labels -> must NOT merge (Lemma 4.2's second condition).
  graph::Instance inst{{0, 1, 0, 1}, {1, 2, 9, 9}};
  for (auto ts : kTree) {
    const auto r = solve(inst, with(ts));
    EXPECT_NE(r.q[2], r.q[3]) << static_cast<int>(ts);
  }
  // ...and with EQUAL cycle labels they must merge.
  graph::Instance inst2{{0, 1, 0, 1}, {1, 1, 9, 9}};
  for (auto ts : kTree) {
    const auto r = solve(inst2, with(ts));
    EXPECT_EQ(r.q[2], r.q[3]) << static_cast<int>(ts);
  }
}

TEST(TreeLabeling, DeepResidualChains) {
  util::Rng rng(1009);
  const auto inst = util::long_tail(5000, 7, 2, rng);
  const auto oracle = solve_naive_refinement(inst);
  for (auto ts : kTree) {
    const auto r = solve(inst, with(ts));
    EXPECT_TRUE(core::same_partition(r.q, oracle.q)) << static_cast<int>(ts);
  }
}

// Step 5's level-ordered rounds at two lanes and grain 64, so wide levels
// split into several blocks and prefetch runs up to each block's end: the
// labels must equal the sequential solve's byte for byte.
void expect_level_synchronous_matches_sequential(const graph::Instance& inst) {
  const auto want = solve(inst, Options::sequential()).q;
  const pram::ScopedContext pooled(pram::ExecutionContext{}.with_threads(2).with_grain(64));
  EXPECT_EQ(solve(inst, with(TreeLabelStrategy::LevelSynchronous)).q, want);
}

TEST(LevelSynchronous, LongTailsMatchSequential) {
  util::Rng rng(1013);
  expect_level_synchronous_matches_sequential(util::long_tail(6000, 7, 2, rng));
  expect_level_synchronous_matches_sequential(util::long_tail(6000, 1, 3, rng));
}

TEST(LevelSynchronous, StarMatchesSequential) {
  // One self-loop with 4000 children: a single level of residual nodes.
  util::Rng rng(1019);
  graph::Instance inst;
  inst.f.assign(4001, 0);
  inst.b.push_back(0);
  for (int i = 0; i < 4000; ++i) inst.b.push_back(rng.below_u32(5));
  expect_level_synchronous_matches_sequential(inst);
}

TEST(LevelSynchronous, RandomFunctionMatchesSequential) {
  util::Rng rng(1021);
  expect_level_synchronous_matches_sequential(util::random_function(1 << 14, 3, rng));
}

TEST(LevelSynchronous, ClassSpansSeveralLevels) {
  // A self-loop and a 60-node kept spine share B-label 1, so every anchor
  // carries one Q-label.  Off each spine node hangs a residual tree of
  // random depth (B-labels 8 and 9): its root sits one level below its
  // anchor, so the class of residual roots spans 60 levels, and so do the
  // classes below it.
  util::Rng rng(1031);
  graph::Instance inst{{0}, {1}};
  for (u32 i = 1; i <= 60; ++i) {
    inst.f.push_back(i - 1);
    inst.b.push_back(1);
  }
  std::vector<u32> residual_roots;
  for (u32 anchor = 0; anchor <= 60; ++anchor) {
    const u32 root = static_cast<u32>(inst.f.size());
    residual_roots.push_back(root);
    inst.f.push_back(anchor);
    inst.b.push_back(9);
    const u32 depth = rng.below_u32(40);
    for (u32 d = 0; d < depth; ++d) {
      // Two children per level, the next level hanging off either.
      const u32 parent = static_cast<u32>(inst.f.size()) - 1 - rng.below_u32(d == 0 ? 1 : 2);
      for (int c = 0; c < 2; ++c) {
        inst.f.push_back(parent);
        inst.b.push_back(8 + rng.below_u32(2));
      }
    }
  }
  expect_level_synchronous_matches_sequential(inst);
  const auto r = solve(inst, Options::parallel());
  for (const u32 root : residual_roots) EXPECT_EQ(r.q[root], r.q[residual_roots[0]]);
  EXPECT_NE(r.q[residual_roots[0]], r.q[0]);
  EXPECT_TRUE(core::same_partition(r.q, solve_naive_refinement(inst).q));
}

class TreeLabelingSweep : public ::testing::TestWithParam<TreeLabelStrategy> {};

TEST_P(TreeLabelingSweep, MatchesOracleOnRandomAndShapedInstances) {
  const TreeLabelStrategy ts = GetParam();
  util::Rng rng(static_cast<u64>(static_cast<int>(ts)) * 97);
  for (int iter = 0; iter < 20; ++iter) {
    const auto inst = util::random_function(1 + rng.below(1200), 1 + rng.below_u32(4), rng);
    const auto r = solve(inst, with(ts));
    const auto oracle = solve_naive_refinement(inst);
    EXPECT_EQ(r.num_blocks, oracle.num_blocks);
    EXPECT_TRUE(core::same_partition(r.q, oracle.q)) << "iter " << iter;
  }
  const auto shaped = util::mergeable(2000, 3, rng);
  const auto r = solve(shaped, with(ts));
  EXPECT_TRUE(core::same_partition(r.q, solve_naive_refinement(shaped).q));
}

INSTANTIATE_TEST_SUITE_P(AllCombos, TreeLabelingSweep, ::testing::ValuesIn(kTree));

}  // namespace
}  // namespace sfcp
