// Unit tests for the forest context: children lists (the Euler partition's
// preimage lists), levels, owning roots and root-path sums, including the
// solve's hand-over of the detector's partition.  The references are
// independent of the tour: graph::compute_orbits' pointer doubling (tail =
// level, entry = owning root) and a sequential pass in level order.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "graph/cycle_detect.hpp"
#include "graph/cycle_structure.hpp"
#include "graph/orbits.hpp"
#include "graph/rooted_forest.hpp"
#include "pram/execution_context.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

using graph::build_forest_context_into;
using graph::cycle_structure;
using graph::EulerPartition;
using graph::ForestContext;
using graph::root_path_sums;

graph::CycleStructure cycles_of(const graph::Instance& inst) {
  return cycle_structure(inst.f, graph::CycleStructureStrategy::Sequential);
}

// The context views inst.f and cs.on_cycle; callers keep both alive.
ForestContext context_of(const graph::Instance& inst, const graph::CycleStructure& cs) {
  ForestContext ctx;
  build_forest_context_into(inst.f, cs.on_cycle, ctx);
  return ctx;
}

std::vector<u32> sums_of(ForestContext& ctx, std::span<const u32> vals) {
  std::vector<u32> out(vals.size());
  root_path_sums(ctx, vals, out);
  return out;
}

// Levels and owning roots of the forest, by pointer doubling.
void expect_levels_and_roots_match_orbits(const graph::Instance& inst, const ForestContext& ctx,
                                          const ::testing::Message& label = {}) {
  const graph::Orbits orb = graph::compute_orbits(inst.f);
  EXPECT_EQ(ctx.level, orb.tail) << label;
  EXPECT_EQ(ctx.root_of, orb.entry) << label;
}

// Root-path sums by a sequential pass in ascending level order, so that
// every parent's sum is final before its children read it.
std::vector<u32> reference_sums(const graph::Instance& inst, std::span<const u32> vals) {
  const graph::Orbits orb = graph::compute_orbits(inst.f);
  std::vector<u32> order(inst.size());
  for (u32 x = 0; x < order.size(); ++x) order[x] = x;
  std::stable_sort(order.begin(), order.end(),
                   [&](u32 a, u32 b) { return orb.tail[a] < orb.tail[b]; });
  std::vector<u32> sum(inst.size());
  for (const u32 x : order) sum[x] = vals[x] + (orb.tail[x] == 0 ? 0 : sum[inst.f[x]]);
  return sum;
}

// Every node sits in the preimage list of its image, once; lists ascend.
void expect_children_ascending_and_complete(const graph::Instance& inst) {
  EulerPartition arcs;
  graph::build_preimages_into(inst.f, arcs);
  ASSERT_EQ(arcs.pre_off.size(), inst.size() + 1);
  std::vector<u32> seen(inst.size(), 0);
  for (u32 v = 0; v < inst.size(); ++v) {
    const auto pre = arcs.preimages(v);
    EXPECT_TRUE(std::is_sorted(pre.begin(), pre.end())) << "node " << v;
    for (const u32 x : pre) {
      EXPECT_EQ(inst.f[x], v);
      ++seen[x];
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](u32 k) { return k == 1; }));
}

TEST(RootedForestBuild, ChildrenAscendingAndComplete) {
  util::Rng rng(801);
  expect_children_ascending_and_complete(util::random_function(2000, 3, rng));
}

// Preimages are placed by atomic counters, so on the pool siblings arrive
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
  const auto lv = context_of(inst, cs);
  EXPECT_EQ(lv.level, (std::vector<u32>{0, 1, 2, 3}));
  EXPECT_EQ(lv.root_of, (std::vector<u32>{0, 0, 0, 0}));
}

TEST(ForestLevelsTest, TwoTrees) {
  // Cycle 0 <-> 1; 2 -> 0; 3 -> 1; 4 -> 3
  graph::Instance inst{{1, 0, 0, 1, 3}, {0, 0, 0, 0, 0}};
  const auto cs = cycles_of(inst);
  const auto lv = context_of(inst, cs);
  EXPECT_EQ(lv.level, (std::vector<u32>{0, 0, 1, 1, 2}));
  EXPECT_EQ(lv.root_of, (std::vector<u32>{0, 1, 0, 1, 1}));
}

TEST(ForestLevelsTest, MatchesOrbitsOnRandom) {
  util::Rng rng(809);
  for (int iter = 0; iter < 20; ++iter) {
    const auto inst = util::random_function(1 + rng.below(3000), 3, rng);
    const auto cs = cycles_of(inst);
    expect_levels_and_roots_match_orbits(inst, context_of(inst, cs));
  }
}

TEST(RootPathSums, UnitValuesGiveLevelPlusRootValue) {
  util::Rng rng(811);
  const auto inst = util::random_function(1500, 3, rng);
  const auto cs = cycles_of(inst);
  const graph::Orbits orb = graph::compute_orbits(inst.f);
  std::vector<u32> ones(inst.size(), 1);
  auto ctx = context_of(inst, cs);
  const auto sums = sums_of(ctx, ones);
  for (u32 x = 0; x < inst.size(); ++x) {
    if (cs.on_cycle[x]) {
      EXPECT_EQ(sums[x], 1u) << "root " << x;
    } else {
      EXPECT_EQ(sums[x], orb.tail[x] + 1) << "node " << x;
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
    auto ctx = context_of(inst, cs);
    EXPECT_EQ(sums_of(ctx, vals), reference_sums(inst, vals));
  }
}

TEST(RootPathSums, DeepPathNoOverflow) {
  util::Rng rng(823);
  const auto inst = util::long_tail(30000, 2, 2, rng);
  const auto cs = cycles_of(inst);
  std::vector<u32> ones(inst.size(), 1);
  auto ctx = context_of(inst, cs);
  const auto ref = reference_sums(inst, ones);
  EXPECT_EQ(sums_of(ctx, ones), ref);
  EXPECT_EQ(*std::max_element(ref.begin(), ref.end()), 29999u);
}

TEST(RootPathSums, AliasedOutputMatchesSeparateOutput) {
  util::Rng rng(827);
  const auto inst = util::random_function(3000, 3, rng);
  const auto cs = cycles_of(inst);
  std::vector<u32> vals(inst.size());
  for (auto& v : vals) v = static_cast<u32>(rng.below(5));
  auto ctx = context_of(inst, cs);
  const auto want = sums_of(ctx, vals);
  std::vector<u32> in_place = vals;
  root_path_sums(ctx, in_place, in_place);
  EXPECT_EQ(in_place, want);
}

// Builds the one context `ctx` twice, building the Euler partition itself
// and taking the detector's, and compares levels, owning roots and path
// sums with the references.
void expect_context_matches_references(const graph::Instance& inst, ForestContext& ctx) {
  const auto cs = cycles_of(inst);
  std::vector<u32> vals(inst.size());
  for (std::size_t x = 0; x < vals.size(); ++x) vals[x] = static_cast<u32>(x % 3);
  const auto ref_sums = reference_sums(inst, vals);
  const bool trees = cs.cycle_nodes.size() < inst.size();
  for (const bool handed_over : {false, true}) {
    if (handed_over) {
      std::vector<u8> on_cycle;
      graph::find_cycle_nodes_into(inst.f, graph::CycleDetectStrategy::EulerTour, on_cycle,
                                   ctx.arcs);
      ASSERT_EQ(on_cycle, cs.on_cycle);
    }
    build_forest_context_into(inst.f, cs, handed_over, ctx);
    const auto label = ::testing::Message() << (handed_over ? "handed over" : "built");
    expect_levels_and_roots_match_orbits(inst, ctx, label);
    EXPECT_EQ(sums_of(ctx, vals), ref_sums) << label;
    EXPECT_EQ(ctx.arcs.pre.size(), inst.size());
    EXPECT_EQ(ctx.arcs.ranked, trees) << label;
    if (trees) EXPECT_EQ(ctx.arcs.pos.size(), 2 * inst.size()) << label;
  }
}

TEST(ForestContextTest, AllCycleInstanceHasEmptyForestAndTour) {
  util::Rng rng(829);
  const auto inst = util::random_permutation(700, 3, rng);
  ForestContext ctx;
  expect_context_matches_references(inst, ctx);
  const auto cs = cycles_of(inst);
  build_forest_context_into(inst.f, cs.on_cycle, ctx);
  EXPECT_FALSE(ctx.arcs.ranked);
  for (u32 x = 0; x < inst.size(); ++x) {
    EXPECT_EQ(ctx.arcs.preimages(x).size(), 1u);
    EXPECT_EQ(ctx.level[x], 0u);
    EXPECT_EQ(ctx.root_of[x], x);
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
  expect_context_matches_references(inst, ctx);
  EXPECT_EQ(ctx.level[n - 1], n - 1);
  EXPECT_EQ(ctx.root_of[n - 1], 0u);
}

TEST(ForestContextTest, ReusedAcrossLargeSmallLarge) {
  util::Rng rng(839);
  const auto large = util::random_function(4000, 3, rng);
  const auto small = util::random_function(12, 3, rng);
  ForestContext ctx;
  expect_context_matches_references(large, ctx);
  expect_context_matches_references(small, ctx);
  expect_context_matches_references(large, ctx);
}

// Instances built from a list of f values, with B = x mod 2.
graph::Instance instance_of(std::vector<u32> f) {
  graph::Instance inst;
  inst.b.resize(f.size());
  for (std::size_t x = 0; x < f.size(); ++x) inst.b[x] = static_cast<u32>(x % 2);
  inst.f = std::move(f);
  return inst;
}

TEST(ForestContextTest, SelfLoopRootsAndTwoCycles) {
  // Self-loops 0 and 1, 2-cycles 2 <-> 3 and 4 <-> 5 (5 childless).
  const auto inst = instance_of({0, 1, 3, 2, 5, 4, 0, 6, 1, 2, 3, 3, 9, 4});
  ForestContext ctx;
  expect_context_matches_references(inst, ctx);
  EXPECT_EQ(ctx.level[12], 2u);
  EXPECT_EQ(ctx.root_of[12], 2u);
}

TEST(ForestContextTest, CyclePredecessorSmallestOrLargestPreimage) {
  // Cycle 5 -> 6 -> 7 -> 5.  6's cycle predecessor 5 is below its children
  // 8 and 9, 7's predecessor 6 above its children 1 and 2, and 5's
  // predecessor 7 between its children 3 and 10.
  const auto inst = instance_of({1, 7, 7, 5, 8, 6, 7, 5, 6, 6, 5});
  ForestContext ctx;
  expect_context_matches_references(inst, ctx);
  const auto cs = cycles_of(inst);
  build_forest_context_into(inst.f, cs, false, ctx);
  // Children above the predecessor lie in the forward Euler cycle, which
  // ends where the backward one starts, at the leader 5's buddy arc.
  const std::vector<u32>& pos = ctx.arcs.pos;
  const u32 backward = pos[EulerPartition::down_arc(5)];
  for (const u32 x : {4u, 8u, 9u, 10u}) EXPECT_LT(pos[EulerPartition::down_arc(x)], backward);
  for (const u32 x : {0u, 1u, 2u, 3u}) EXPECT_GT(pos[EulerPartition::down_arc(x)], backward);
}

TEST(ForestContextTest, TreeOnEveryCycleNode) {
  // A 50-cycle; cycle node v carries a chain v <- v+50 <- v+100 and a leaf
  // v+150, so each has children on both sides of its cycle predecessor or
  // on one.
  constexpr u32 k = 50;
  std::vector<u32> f(4 * k);
  for (u32 v = 0; v < k; ++v) {
    f[v] = (v + 1) % k;
    f[v + k] = v;
    f[v + 2 * k] = v + k;
    f[v + 3 * k] = v;
  }
  const auto inst = instance_of(std::move(f));
  ForestContext ctx;
  expect_context_matches_references(inst, ctx);
  EXPECT_EQ(*std::max_element(ctx.level.begin(), ctx.level.end()), 2u);
}

TEST(ForestContextTest, DeepChainOf65536) {
  // Both orientations: ids falling toward the root, and rising.
  constexpr u32 n = 1u << 16;
  std::vector<u32> down(n), up(n);
  for (u32 x = 0; x < n; ++x) {
    down[x] = x == 0 ? 0 : x - 1;
    up[x] = x + 1 == n ? x : x + 1;
  }
  for (auto* f : {&down, &up}) {
    const auto inst = instance_of(*f);
    ForestContext ctx;
    expect_context_matches_references(inst, ctx);
    EXPECT_EQ(*std::max_element(ctx.level.begin(), ctx.level.end()), n - 1);
  }
}

TEST(ForestContextTest, ManyComponents) {
  // 1000 components of 5 nodes, each a random function on its block.
  util::Rng rng(853);
  std::vector<u32> f(5000);
  for (u32 x = 0; x < f.size(); ++x) f[x] = x / 5 * 5 + static_cast<u32>(rng.below(5));
  const auto inst = instance_of(std::move(f));
  ForestContext ctx;
  expect_context_matches_references(inst, ctx);
  EXPECT_GE(cycles_of(inst).num_cycles(), 1000u);
}

TEST(ForestContextTest, ReusedAcrossSizesOnThePool) {
  util::Rng rng(857);
  const auto large = util::random_function(6000, 3, rng);
  const auto small = util::random_function(40, 3, rng);
  for (const int threads : {1, 2, 4}) {
    const pram::ScopedContext pooled(
        pram::ExecutionContext{}.with_threads(threads).with_grain(64));
    ForestContext ctx;
    expect_context_matches_references(large, ctx);
    expect_context_matches_references(small, ctx);
    expect_context_matches_references(large, ctx);
  }
}

}  // namespace
}  // namespace sfcp
