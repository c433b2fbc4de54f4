// Unit tests for the forest's Euler tour: the §5 Euler partition of f,
// ranked and laid out by the forest context.
#include <gtest/gtest.h>

#include "graph/cycle_structure.hpp"
#include "graph/euler_tour.hpp"
#include "graph/rooted_forest.hpp"
#include "pram/execution_context.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

using graph::cycle_structure;
using graph::EulerPartition;
using graph::ForestContext;

// A forest context and the cycle structure whose on-cycle flags it views.
struct Forest {
  explicit Forest(const graph::Instance& inst)
      : cs(cycle_structure(inst.f, graph::CycleStructureStrategy::Sequential)) {
    build(inst, ctx);
  }
  Forest(const Forest&) = delete;
  Forest& operator=(const Forest&) = delete;

  // Rebuilds `into`, which may hold an earlier instance's tour.
  void build(const graph::Instance& inst, ForestContext& into) const {
    graph::build_forest_context_into(inst.f, cs, false, into);
  }

  graph::CycleStructure cs;
  ForestContext ctx;
};

// The arc at each tour position.
std::vector<u32> order_of(const ForestContext& ctx) {
  std::vector<u32> order(ctx.arcs.pos.size(), kNone);
  for (u32 a = 0; a < order.size(); ++a) order[ctx.arcs.pos[a]] = a;
  return order;
}

// Structural checks: every arc placed exactly once; each Euler cycle starts
// with an arc of its cycle's leader; between cycle arcs, balanced runs of
// tree arcs in which every down-arc precedes its up-arc, a parent's arcs
// enclose its child's, and every node hangs from the head of the cycle arc
// before its run.
void check_tour(const graph::Instance& inst, const graph::CycleStructure& cs,
                const ForestContext& ctx) {
  const std::size_t n = inst.size();
  const std::span<const u8> root = cs.on_cycle;
  if (cs.cycle_nodes.size() == n) {
    EXPECT_FALSE(ctx.arcs.ranked);
    return;
  }
  ASSERT_TRUE(ctx.arcs.ranked);
  ASSERT_EQ(ctx.arcs.pos.size(), 2 * n);
  const std::vector<u32> order = order_of(ctx);
  for (std::size_t p = 0; p < order.size(); ++p) ASSERT_NE(order[p], kNone) << "hole at " << p;
  i64 depth = 0;
  u32 head = kNone;
  std::size_t cycle_arcs = 0;
  for (const u32 arc : order) {
    const u32 x = arc / 2;
    const bool up = arc == EulerPartition::up_arc(x);
    if (root[x]) {
      EXPECT_EQ(depth, 0) << "unbalanced run before cycle arc " << arc;
      head = up ? inst.f[x] : x;
      ++cycle_arcs;
      continue;
    }
    ASSERT_NE(head, kNone) << "tree arc before the first cycle arc";
    depth += up ? -1 : 1;
    EXPECT_GE(depth, 0);
    if (!up) {
      EXPECT_EQ(ctx.root_of[x], head) << "node " << x;
      EXPECT_EQ(ctx.level[x], depth) << "node " << x;
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(cycle_arcs, 2 * cs.cycle_nodes.size());
  for (u32 x = 0; x < n; ++x) {
    if (root[x]) continue;
    EXPECT_LT(ctx.arcs.pos[EulerPartition::down_arc(x)], ctx.arcs.pos[EulerPartition::up_arc(x)]);
    const u32 p = inst.f[x];
    if (root[p]) continue;
    EXPECT_LT(ctx.arcs.pos[EulerPartition::down_arc(p)], ctx.arcs.pos[EulerPartition::down_arc(x)]);
    EXPECT_GT(ctx.arcs.pos[EulerPartition::up_arc(p)], ctx.arcs.pos[EulerPartition::up_arc(x)]);
  }
  // The forward, then the backward Euler cycle of each cycle in turn, each
  // starting at an arc of the cycle's leader and holding only that cycle's
  // arcs of its own direction.
  std::vector<u32> starts;
  for (std::size_t c = 0; c < cs.num_cycles(); ++c) {
    const u32 c0 = cs.node_at(c, 0);
    starts.push_back(ctx.arcs.pos[EulerPartition::up_arc(c0)]);
    starts.push_back(ctx.arcs.pos[EulerPartition::down_arc(c0)]);
  }
  starts.push_back(static_cast<u32>(order.size()));
  EXPECT_EQ(starts[0], 0u);
  for (std::size_t e = 0; e + 1 < starts.size(); ++e) {
    ASSERT_LT(starts[e], starts[e + 1]) << "Euler cycle " << e;
    for (u32 p = starts[e]; p < starts[e + 1]; ++p) {
      const u32 x = order[p] / 2;
      if (!root[x]) continue;
      EXPECT_EQ(cs.cycle_of[x], e / 2) << "position " << p;
      EXPECT_EQ(order[p] % 2, e % 2) << "position " << p;
    }
  }
}

TEST(EulerTourTest, NoTreeNodes) {
  graph::Instance inst{{1, 0}, {0, 0}};
  const Forest fo(inst);
  EXPECT_FALSE(fo.ctx.arcs.ranked);
  EXPECT_EQ(fo.ctx.level, (std::vector<u32>{0, 0}));
  EXPECT_EQ(fo.ctx.root_of, (std::vector<u32>{0, 1}));
}

TEST(EulerTourTest, SinglePathIntoSelfLoop) {
  // 0 self-loop; 1 -> 0; 2 -> 1.  Node 0 is its own cycle predecessor, so
  // its child 1 lies above it: in the forward Euler cycle.
  graph::Instance inst{{0, 0, 1}, {0, 0, 0}};
  const Forest fo(inst);
  const auto order = order_of(fo.ctx);
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order[0], EulerPartition::up_arc(0));
  EXPECT_EQ(order[1], EulerPartition::down_arc(1));
  EXPECT_EQ(order[2], EulerPartition::down_arc(2));
  EXPECT_EQ(order[3], EulerPartition::up_arc(2));
  EXPECT_EQ(order[4], EulerPartition::up_arc(1));
  EXPECT_EQ(order[5], EulerPartition::down_arc(0));
  check_tour(inst, fo.cs, fo.ctx);
}

TEST(EulerTourTest, StarTree) {
  // 0 self-loop; 1..5 -> 0
  graph::Instance inst{{0, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0}};
  const Forest fo(inst);
  const auto order = order_of(fo.ctx);
  ASSERT_EQ(order.size(), 12u);
  check_tour(inst, fo.cs, fo.ctx);
  // Siblings appear in ascending order (deterministic construction), after
  // the cycle arc that opens the forward Euler cycle.
  EXPECT_EQ(order[1], EulerPartition::down_arc(1));
  EXPECT_EQ(order[3], EulerPartition::down_arc(2));
}

TEST(EulerTourTest, MultipleTreesChained) {
  // Two self-loops 0 and 1; 2 -> 0, 3 -> 1.  Each cycle's two Euler cycles
  // follow each other; each tree is one run after its root's forward arc.
  graph::Instance inst{{0, 1, 0, 1}, {0, 0, 0, 0}};
  const Forest fo(inst);
  const auto order = order_of(fo.ctx);
  ASSERT_EQ(order.size(), 8u);
  EXPECT_EQ(order, (std::vector<u32>{EulerPartition::up_arc(0), EulerPartition::down_arc(2),
                                     EulerPartition::up_arc(2), EulerPartition::down_arc(0),
                                     EulerPartition::up_arc(1), EulerPartition::down_arc(3),
                                     EulerPartition::up_arc(3), EulerPartition::down_arc(1)}));
  check_tour(inst, fo.cs, fo.ctx);
}

// Lane counts of the sweep below: 1, 2 and 4 threads.
enum class Lanes { One, Two, Four };

class EulerTourSweep : public ::testing::TestWithParam<Lanes> {};

TEST_P(EulerTourSweep, RandomForestsAllRankingStrategies) {
  const int threads = 1 << static_cast<int>(GetParam());
  const pram::ScopedContext pooled(
      pram::ExecutionContext{}.with_threads(threads).with_grain(64));
  util::Rng rng(701);
  for (int iter = 0; iter < 15; ++iter) {
    const auto inst = util::random_function(1 + rng.below(3000), 3, rng);
    const Forest fo(inst);
    check_tour(inst, fo.cs, fo.ctx);
  }
}

INSTANTIATE_TEST_SUITE_P(Rankings, EulerTourSweep,
                         ::testing::Values(Lanes::One, Lanes::Two, Lanes::Four));

TEST(EulerTourTest, ReusedTourRebuildsAcrossSizes) {
  util::Rng rng(719);
  const auto large = util::random_function(4000, 3, rng);
  const auto small = util::random_function(12, 3, rng);
  const auto all_cycle = util::random_permutation(300, 3, rng);
  ForestContext ctx;
  for (const auto* inst : {&large, &small, &all_cycle, &large}) {
    const Forest fo(*inst);
    fo.build(*inst, ctx);
    check_tour(*inst, fo.cs, ctx);
    EXPECT_EQ(ctx.level, fo.ctx.level);
    EXPECT_EQ(ctx.root_of, fo.ctx.root_of);
  }
  EXPECT_FALSE(Forest(all_cycle).ctx.arcs.ranked);
}

TEST(EulerTourTest, DeepPath) {
  util::Rng rng(709);
  const auto inst = util::long_tail(20000, 3, 2, rng);
  const Forest fo(inst);
  check_tour(inst, fo.cs, fo.ctx);
}

}  // namespace
}  // namespace sfcp
