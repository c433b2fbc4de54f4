// Unit tests for Euler tours of rooted forests.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/cycle_structure.hpp"
#include "graph/euler_tour.hpp"
#include "graph/rooted_forest.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

using graph::build_euler_tour_into;
using graph::build_rooted_forest_into;
using graph::cycle_structure;
using graph::EulerTour;
using graph::RootedForest;

// A forest and the cycle structure whose on-cycle flags it views.
struct Forest {
  explicit Forest(const graph::Instance& inst)
      : cs(cycle_structure(inst.f, graph::CycleStructureStrategy::Sequential)) {
    build_rooted_forest_into(inst.f, cs.on_cycle, forest);
  }
  Forest(const Forest&) = delete;
  Forest& operator=(const Forest&) = delete;

  graph::CycleStructure cs;
  RootedForest forest;
};

EulerTour tour_of(const RootedForest& forest,
                  prim::ListRankStrategy ranking = prim::ListRankStrategy::RulingSet) {
  EulerTour tour;
  build_euler_tour_into(forest, tour, ranking);
  return tour;
}

// Structural checks: the tour is a permutation of all used arcs; every
// down-arc precedes its up-arc; nesting is balanced per tree.
void check_tour(const RootedForest& forest, const EulerTour& tour) {
  const std::size_t n = forest.size();
  std::size_t tree_nodes = 0;
  for (u32 x = 0; x < n; ++x) tree_nodes += forest.is_root[x] ? 0 : 1;
  ASSERT_EQ(tour.order.size(), 2 * tree_nodes);
  std::vector<u8> seen(tour.order.size(), 0);
  for (std::size_t p = 0; p < tour.order.size(); ++p) {
    const u32 arc = tour.order[p];
    ASSERT_NE(arc, kNone) << "hole at position " << p;
    EXPECT_EQ(tour.pos[arc], p);
    seen[p] = 1;
  }
  i64 depth = 0;
  for (std::size_t p = 0; p < tour.order.size(); ++p) {
    if (tour.seg_start[p]) EXPECT_EQ(depth, 0) << "unbalanced tour at segment start " << p;
    depth += EulerTour::is_down(tour.order[p]) ? 1 : -1;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  for (u32 x = 0; x < n; ++x) {
    if (forest.is_root[x]) {
      EXPECT_EQ(tour.pos[EulerTour::down_arc(x)], kNone);
      EXPECT_EQ(tour.pos[EulerTour::up_arc(x)], kNone);
    } else {
      EXPECT_LT(tour.pos[EulerTour::down_arc(x)], tour.pos[EulerTour::up_arc(x)]);
    }
  }
  // Parent's down-arc encloses the child's.
  for (u32 x = 0; x < n; ++x) {
    if (forest.is_root[x]) continue;
    const u32 p = forest.parent[x];
    if (forest.is_root[p]) continue;
    EXPECT_LT(tour.pos[EulerTour::down_arc(p)], tour.pos[EulerTour::down_arc(x)]);
    EXPECT_GT(tour.pos[EulerTour::up_arc(p)], tour.pos[EulerTour::up_arc(x)]);
  }
}

TEST(EulerTourTest, NoTreeNodes) {
  std::vector<u32> f{1, 0};
  graph::Instance inst{{1, 0}, {0, 0}};
  const Forest fo(inst);
  const auto& forest = fo.forest;
  const auto tour = tour_of(forest);
  EXPECT_TRUE(tour.order.empty());
}

TEST(EulerTourTest, SinglePathIntoSelfLoop) {
  // 0 self-loop; 1 -> 0; 2 -> 1
  graph::Instance inst{{0, 0, 1}, {0, 0, 0}};
  const Forest fo(inst);
  const auto& forest = fo.forest;
  const auto tour = tour_of(forest);
  ASSERT_EQ(tour.order.size(), 4u);
  EXPECT_EQ(tour.order[0], EulerTour::down_arc(1));
  EXPECT_EQ(tour.order[1], EulerTour::down_arc(2));
  EXPECT_EQ(tour.order[2], EulerTour::up_arc(2));
  EXPECT_EQ(tour.order[3], EulerTour::up_arc(1));
  check_tour(forest, tour);
}

TEST(EulerTourTest, StarTree) {
  // 0 self-loop; 1..5 -> 0
  graph::Instance inst{{0, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0}};
  const Forest fo(inst);
  const auto& forest = fo.forest;
  const auto tour = tour_of(forest);
  ASSERT_EQ(tour.order.size(), 10u);
  check_tour(forest, tour);
  // Siblings appear in ascending order (deterministic construction).
  EXPECT_EQ(tour.order[0], EulerTour::down_arc(1));
  EXPECT_EQ(tour.order[2], EulerTour::down_arc(2));
}

TEST(EulerTourTest, MultipleTreesChained) {
  // Two self-loops 0 and 1; 2 -> 0, 3 -> 1.
  graph::Instance inst{{0, 1, 0, 1}, {0, 0, 0, 0}};
  const Forest fo(inst);
  const auto& forest = fo.forest;
  const auto tour = tour_of(forest);
  ASSERT_EQ(tour.order.size(), 4u);
  EXPECT_EQ(tour.seg_start[0], 1);
  EXPECT_EQ(tour.seg_start[2], 1);
  check_tour(forest, tour);
}

class EulerTourSweep : public ::testing::TestWithParam<prim::ListRankStrategy> {};

TEST_P(EulerTourSweep, RandomForestsAllRankingStrategies) {
  util::Rng rng(701);
  for (int iter = 0; iter < 15; ++iter) {
    const auto inst = util::random_function(1 + rng.below(3000), 3, rng);
    const Forest fo(inst);
    const auto& forest = fo.forest;
    const auto tour = tour_of(forest, GetParam());
    check_tour(forest, tour);
  }
}

INSTANTIATE_TEST_SUITE_P(Rankings, EulerTourSweep,
                         ::testing::Values(prim::ListRankStrategy::Sequential,
                                           prim::ListRankStrategy::PointerJumping,
                                           prim::ListRankStrategy::RulingSet));

TEST(EulerTourTest, ReusedTourRebuildsAcrossSizes) {
  util::Rng rng(719);
  const auto large = util::random_function(4000, 3, rng);
  const auto small = util::random_function(12, 3, rng);
  const auto all_cycle = util::random_permutation(300, 3, rng);
  EulerTour tour;
  for (const auto* inst : {&large, &small, &all_cycle, &large}) {
    const Forest fo(*inst);
    build_euler_tour_into(fo.forest, tour);
    check_tour(fo.forest, tour);
    const auto starts = std::count(tour.seg_start.begin(), tour.seg_start.end(), 1);
    EXPECT_EQ(tour.seg_root.size(), static_cast<std::size_t>(starts));
  }
  EXPECT_TRUE(tour_of(Forest(all_cycle).forest).order.empty());
}

TEST(EulerTourTest, DeepPath) {
  util::Rng rng(709);
  const auto inst = util::long_tail(20000, 3, 2, rng);
  const Forest fo(inst);
  const auto& forest = fo.forest;
  check_tour(forest, tour_of(forest));
}

}  // namespace
}  // namespace sfcp
