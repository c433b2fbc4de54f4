// Unit tests for rooted-forest construction and the forest context: levels,
// owning roots and root-path sums across the three strategies.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "graph/cycle_structure.hpp"
#include "graph/rooted_forest.hpp"
#include "pram/execution_context.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

using graph::build_forest_context_into;
using graph::build_rooted_forest_into;
using graph::cycle_structure;
using graph::ForestContext;
using graph::ForestStrategy;
using graph::root_path_sums;
using graph::RootedForest;

const auto kAll = {ForestStrategy::Sequential, ForestStrategy::EulerTour,
                   ForestStrategy::AncestorDoubling};

graph::CycleStructure cycles_of(const graph::Instance& inst) {
  return cycle_structure(inst.f, graph::CycleStructureStrategy::Sequential);
}

// The context views inst.f and cs.on_cycle; callers keep both alive.
ForestContext context_of(const graph::Instance& inst, const graph::CycleStructure& cs,
                         ForestStrategy strategy) {
  ForestContext ctx;
  build_forest_context_into(inst.f, cs.on_cycle, strategy, ctx);
  return ctx;
}

std::vector<u32> sums_of(ForestContext& ctx, std::span<const u32> vals) {
  std::vector<u32> out(vals.size());
  root_path_sums(ctx, vals, out);
  return out;
}

void expect_children_ascending_and_complete(const graph::Instance& inst) {
  const auto cs = cycles_of(inst);
  RootedForest forest;
  build_rooted_forest_into(inst.f, cs.on_cycle, forest);
  std::size_t total_children = 0;
  for (u32 v = 0; v < forest.size(); ++v) {
    for (u32 i = forest.child_off[v]; i < forest.child_off[v + 1]; ++i) {
      const u32 c = forest.child[i];
      EXPECT_EQ(inst.f[c], v);
      EXPECT_FALSE(forest.is_root[c]);
      if (i + 1 < forest.child_off[v + 1]) {
        EXPECT_LT(c, forest.child[i + 1]);
      }
      EXPECT_EQ(forest.sibling_index[c], i - forest.child_off[v]);
      ++total_children;
    }
  }
  std::size_t tree_nodes = 0;
  for (u32 x = 0; x < forest.size(); ++x) tree_nodes += forest.is_root[x] ? 0 : 1;
  EXPECT_EQ(total_children, tree_nodes);
}

TEST(RootedForestBuild, ChildrenAscendingAndComplete) {
  util::Rng rng(801);
  expect_children_ascending_and_complete(util::random_function(2000, 3, rng));
}

// Children are placed by atomic counters, so on the pool siblings arrive
// in scheduling order; the build must still sort them.
TEST(RootedForestBuild, ChildrenAscendingOnThePool) {
  util::Rng rng(803);
  const pram::ScopedContext pooled(pram::ExecutionContext{}.with_threads(2).with_grain(64));
  expect_children_ascending_and_complete(util::random_function(20000, 3, rng));
  expect_children_ascending_and_complete(util::bushy(20000, 4, 64, 2, rng));
}

TEST(ForestLevelsTest, SimpleChain) {
  // 0 self-loop; 1 -> 0; 2 -> 1; 3 -> 2
  graph::Instance inst{{0, 0, 1, 2}, {0, 0, 0, 0}};
  const auto cs = cycles_of(inst);
  for (auto strat : kAll) {
    const auto lv = context_of(inst, cs, strat);
    EXPECT_EQ(lv.level, (std::vector<u32>{0, 1, 2, 3})) << static_cast<int>(strat);
    EXPECT_EQ(lv.root_of, (std::vector<u32>{0, 0, 0, 0}));
  }
}

TEST(ForestLevelsTest, TwoTrees) {
  // Cycle 0 <-> 1; 2 -> 0; 3 -> 1; 4 -> 3
  graph::Instance inst{{1, 0, 0, 1, 3}, {0, 0, 0, 0, 0}};
  const auto cs = cycles_of(inst);
  for (auto strat : kAll) {
    const auto lv = context_of(inst, cs, strat);
    EXPECT_EQ(lv.level, (std::vector<u32>{0, 0, 1, 1, 2}));
    EXPECT_EQ(lv.root_of, (std::vector<u32>{0, 1, 0, 1, 1}));
  }
}

TEST(ForestLevelsTest, StrategiesAgreeOnRandom) {
  util::Rng rng(809);
  for (int iter = 0; iter < 20; ++iter) {
    const auto inst = util::random_function(1 + rng.below(3000), 3, rng);
    const auto cs = cycles_of(inst);
    const auto ref = context_of(inst, cs, ForestStrategy::Sequential);
    for (auto strat : {ForestStrategy::EulerTour, ForestStrategy::AncestorDoubling}) {
      const auto got = context_of(inst, cs, strat);
      EXPECT_EQ(got.level, ref.level) << static_cast<int>(strat);
      EXPECT_EQ(got.root_of, ref.root_of) << static_cast<int>(strat);
    }
  }
}

TEST(RootPathSums, UnitValuesGiveLevelPlusRootValue) {
  util::Rng rng(811);
  const auto inst = util::random_function(1500, 3, rng);
  const auto cs = cycles_of(inst);
  const auto lv = context_of(inst, cs, ForestStrategy::Sequential);
  const auto& forest = lv.forest;
  std::vector<u32> ones(forest.size(), 1);
  for (auto strat : kAll) {
    auto ctx = context_of(inst, cs, strat);
    const auto sums = sums_of(ctx, ones);
    for (u32 x = 0; x < forest.size(); ++x) {
      if (forest.is_root[x]) {
        EXPECT_EQ(sums[x], 1u) << "root " << x;
      } else {
        EXPECT_EQ(sums[x], lv.level[x] + 1) << "node " << x;
      }
    }
  }
}

TEST(RootPathSums, RandomValuesMatchSequential) {
  util::Rng rng(821);
  for (int iter = 0; iter < 15; ++iter) {
    const auto inst = util::random_function(1 + rng.below(2500), 3, rng);
    const auto cs = cycles_of(inst);
    // Signed values in two's complement: the sums are exact mod 2^32.
    std::vector<u32> vals(inst.size());
    for (auto& v : vals) v = static_cast<u32>(static_cast<i64>(rng.below(19)) - 9);
    auto seq = context_of(inst, cs, ForestStrategy::Sequential);
    auto euler = context_of(inst, cs, ForestStrategy::EulerTour);
    auto doubling = context_of(inst, cs, ForestStrategy::AncestorDoubling);
    const auto ref = sums_of(seq, vals);
    EXPECT_EQ(sums_of(euler, vals), ref);
    EXPECT_EQ(sums_of(doubling, vals), ref);
  }
}

TEST(RootPathSums, DeepPathNoOverflow) {
  util::Rng rng(823);
  const auto inst = util::long_tail(30000, 2, 2, rng);
  const auto cs = cycles_of(inst);
  std::vector<u32> ones(inst.size(), 1);
  auto seq = context_of(inst, cs, ForestStrategy::Sequential);
  auto euler = context_of(inst, cs, ForestStrategy::EulerTour);
  auto doubling = context_of(inst, cs, ForestStrategy::AncestorDoubling);
  const auto ref = sums_of(seq, ones);
  EXPECT_EQ(sums_of(euler, ones), ref);
  EXPECT_EQ(sums_of(doubling, ones), ref);
  EXPECT_EQ(*std::max_element(ref.begin(), ref.end()), 29999u);
}

TEST(RootPathSums, AliasedOutputMatchesSeparateOutput) {
  util::Rng rng(827);
  const auto inst = util::random_function(3000, 3, rng);
  const auto cs = cycles_of(inst);
  std::vector<u32> vals(inst.size());
  for (auto& v : vals) v = static_cast<u32>(rng.below(5));
  for (auto strat : kAll) {
    auto ctx = context_of(inst, cs, strat);
    const auto want = sums_of(ctx, vals);
    std::vector<u32> in_place = vals;
    root_path_sums(ctx, in_place, in_place);
    EXPECT_EQ(in_place, want) << static_cast<int>(strat);
  }
}

// Runs every strategy through the one context `ctx` and compares levels,
// owning roots and path sums with a fresh Sequential context.
void expect_context_matches_sequential(const graph::Instance& inst, ForestContext& ctx) {
  const auto cs = cycles_of(inst);
  auto ref = context_of(inst, cs, ForestStrategy::Sequential);
  std::vector<u32> vals(inst.size());
  for (std::size_t x = 0; x < vals.size(); ++x) vals[x] = static_cast<u32>(x % 3);
  const auto ref_sums = sums_of(ref, vals);
  const std::size_t tree_nodes = inst.size() - cs.cycle_nodes.size();
  for (auto strat : kAll) {
    build_forest_context_into(inst.f, cs.on_cycle, strat, ctx);
    EXPECT_EQ(ctx.level, ref.level) << static_cast<int>(strat);
    EXPECT_EQ(ctx.root_of, ref.root_of) << static_cast<int>(strat);
    EXPECT_EQ(sums_of(ctx, vals), ref_sums) << static_cast<int>(strat);
    EXPECT_EQ(ctx.forest.child.size(), tree_nodes);
    EXPECT_EQ(ctx.tour.order.size(), strat == ForestStrategy::EulerTour ? 2 * tree_nodes : 0);
  }
}

TEST(ForestContextTest, AllCycleInstanceHasEmptyForestAndTour) {
  util::Rng rng(829);
  const auto inst = util::random_permutation(700, 3, rng);
  ForestContext ctx;
  expect_context_matches_sequential(inst, ctx);
  const auto cs = cycles_of(inst);
  for (auto strat : kAll) {
    build_forest_context_into(inst.f, cs.on_cycle, strat, ctx);
    EXPECT_TRUE(ctx.forest.child.empty());
    EXPECT_TRUE(ctx.tour.order.empty());
    for (u32 x = 0; x < inst.size(); ++x) {
      EXPECT_EQ(ctx.level[x], 0u);
      EXPECT_EQ(ctx.root_of[x], x);
    }
  }
}

TEST(ForestContextTest, SingleDeepChain) {
  // 0 self-loop; x -> x - 1: one tree of depth n - 1.
  constexpr u32 n = 5000;
  graph::Instance inst;
  for (u32 x = 0; x < n; ++x) {
    inst.f.push_back(x == 0 ? 0 : x - 1);
    inst.b.push_back(x % 2);
  }
  ForestContext ctx;
  expect_context_matches_sequential(inst, ctx);
  EXPECT_EQ(ctx.level[n - 1], n - 1);
  EXPECT_EQ(ctx.root_of[n - 1], 0u);
}

TEST(ForestContextTest, ReusedAcrossLargeSmallLarge) {
  util::Rng rng(839);
  const auto large = util::random_function(4000, 3, rng);
  const auto small = util::random_function(12, 3, rng);
  ForestContext ctx;
  expect_context_matches_sequential(large, ctx);
  expect_context_matches_sequential(small, ctx);
  expect_context_matches_sequential(large, ctx);
}

}  // namespace
}  // namespace sfcp
