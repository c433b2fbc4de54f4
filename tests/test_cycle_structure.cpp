// Unit tests for cycle structure (leader / rank / length / arrangement).
#include <gtest/gtest.h>

#include "graph/cycle_detect.hpp"
#include "graph/cycle_structure.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

using graph::cycle_structure;
using graph::CycleStructure;
using graph::CycleStructureStrategy;

void check_invariants(const CycleStructure& cs, std::span<const u32> f) {
  const std::size_t n = f.size();
  // Every cycle node's successor is a cycle node with rank+1 (mod len).
  for (u32 x = 0; x < n; ++x) {
    if (!cs.on_cycle[x]) {
      EXPECT_EQ(cs.leader[x], kNone);
      continue;
    }
    const u32 y = f[x];
    ASSERT_TRUE(cs.on_cycle[y]);
    EXPECT_EQ(cs.leader[x], cs.leader[y]);
    EXPECT_EQ(cs.length[x], cs.length[y]);
    EXPECT_EQ((cs.rank[x] + 1) % cs.length[x], cs.rank[y]);
    // Leader is the minimum id on the cycle.
    EXPECT_LE(cs.leader[x], x);
    EXPECT_EQ(cs.on_cycle[cs.leader[x]], 1);
  }
  // Arrangement: node_at(cycle_of[x], rank[x]) == x; leaders have rank 0.
  for (u32 x = 0; x < n; ++x) {
    if (!cs.on_cycle[x]) continue;
    EXPECT_EQ(cs.node_at(cs.cycle_of[x], cs.rank[x]), x);
    if (cs.leader[x] == x) EXPECT_EQ(cs.rank[x], 0u);
  }
  // Offsets consistent with lengths.
  for (std::size_t c = 0; c < cs.num_cycles(); ++c) {
    const u32 len = cs.cycle_length(c);
    EXPECT_EQ(len, cs.length[cs.cycle_nodes[cs.cycle_offset[c]]]);
    EXPECT_GE(len, 1u);
  }
}

TEST(CycleStructure, SelfLoop) {
  std::vector<u32> f{0};
  for (auto strat : {CycleStructureStrategy::Sequential, CycleStructureStrategy::PointerJumping}) {
    const auto cs = cycle_structure(f, strat);
    EXPECT_EQ(cs.num_cycles(), 1u);
    EXPECT_EQ(cs.on_cycle[0], 1);
    EXPECT_EQ(cs.length[0], 1u);
    EXPECT_EQ(cs.rank[0], 0u);
  }
}

TEST(CycleStructure, TwoCycleWithTail) {
  // 0 <-> 1, 2 -> 0, 3 -> 2
  std::vector<u32> f{1, 0, 0, 2};
  for (auto strat : {CycleStructureStrategy::Sequential, CycleStructureStrategy::PointerJumping}) {
    const auto cs = cycle_structure(f, strat);
    EXPECT_EQ(cs.num_cycles(), 1u);
    EXPECT_EQ(cs.on_cycle[0], 1);
    EXPECT_EQ(cs.on_cycle[1], 1);
    EXPECT_EQ(cs.on_cycle[2], 0);
    EXPECT_EQ(cs.on_cycle[3], 0);
    EXPECT_EQ(cs.leader[0], 0u);
    EXPECT_EQ(cs.rank[1], 1u);
    check_invariants(cs, f);
  }
}

TEST(CycleStructure, PaperFig1TwoCycles) {
  const auto inst = util::paper_example_2_2();
  for (auto strat : {CycleStructureStrategy::Sequential, CycleStructureStrategy::PointerJumping}) {
    const auto cs = cycle_structure(inst.f, strat);
    EXPECT_EQ(cs.num_cycles(), 2u);  // lengths 12 and 4 (Fig. 1)
    EXPECT_EQ(cs.cycle_length(0) + cs.cycle_length(1), 16u);
    const u32 lens[2] = {cs.cycle_length(0), cs.cycle_length(1)};
    EXPECT_TRUE((lens[0] == 12 && lens[1] == 4) || (lens[0] == 4 && lens[1] == 12));
    check_invariants(cs, inst.f);
  }
}

// Every field, byte for byte.
void expect_same_structure(const CycleStructure& want, const CycleStructure& got,
                           const ::testing::Message& label) {
  EXPECT_EQ(got.on_cycle, want.on_cycle) << label;
  EXPECT_EQ(got.leader, want.leader) << label;
  EXPECT_EQ(got.rank, want.rank) << label;
  EXPECT_EQ(got.length, want.length) << label;
  EXPECT_EQ(got.cycle_nodes, want.cycle_nodes) << label;
  EXPECT_EQ(got.cycle_offset, want.cycle_offset) << label;
  EXPECT_EQ(got.cycle_of, want.cycle_of) << label;
}

TEST(CycleStructure, StrategiesAgreeExactly) {
  util::Rng rng(501);
  for (int iter = 0; iter < 30; ++iter) {
    const std::size_t n = 1 + rng.below(2000);
    // A random function, and the ruling-set ranker's adversary: one long
    // cycle without a sampled node beside sampled self-loops.
    for (const auto& inst :
         {util::random_function(n, 3, rng), util::splitter_free_cycle(n, 3, rng)}) {
      const auto seq = cycle_structure(inst.f, CycleStructureStrategy::Sequential);
      expect_same_structure(seq, cycle_structure(inst.f, CycleStructureStrategy::PointerJumping),
                            ::testing::Message() << "flag-less pointer jumping");
      // Both strategies fed by each detector's flags, as a solve feeds them.
      for (const auto detect : {graph::CycleDetectStrategy::Sequential,
                                graph::CycleDetectStrategy::FunctionPowers,
                                graph::CycleDetectStrategy::EulerTour}) {
        const auto flags = graph::find_cycle_nodes(inst.f, detect);
        for (const auto strat :
             {CycleStructureStrategy::Sequential, CycleStructureStrategy::PointerJumping}) {
          expect_same_structure(seq, graph::cycle_structure_with_flags(inst.f, flags, strat),
                                ::testing::Message() << "detector " << static_cast<int>(detect)
                                                     << ", strategy " << static_cast<int>(strat));
        }
      }
    }
  }
}

TEST(CycleStructure, PermutationIsAllCycles) {
  util::Rng rng(503);
  const auto inst = util::random_permutation(5000, 3, rng);
  const auto cs = cycle_structure(inst.f, CycleStructureStrategy::PointerJumping);
  EXPECT_EQ(cs.cycle_nodes.size(), 5000u);
  for (u32 x = 0; x < 5000; ++x) EXPECT_EQ(cs.on_cycle[x], 1);
  check_invariants(cs, inst.f);
}

TEST(CycleStructure, LongTailSingleCycle) {
  util::Rng rng(509);
  const auto inst = util::long_tail(10000, 17, 3, rng);
  for (auto strat : {CycleStructureStrategy::Sequential, CycleStructureStrategy::PointerJumping}) {
    const auto cs = cycle_structure(inst.f, strat);
    EXPECT_EQ(cs.num_cycles(), 1u);
    EXPECT_EQ(cs.cycle_length(0), 17u);
    check_invariants(cs, inst.f);
  }
}

class CycleStructureSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CycleStructureSweep, InvariantsOnRandomFunctions) {
  const std::size_t n = GetParam();
  util::Rng rng(n);
  const auto inst = util::random_function(n, 4, rng);
  for (auto strat : {CycleStructureStrategy::Sequential, CycleStructureStrategy::PointerJumping}) {
    check_invariants(cycle_structure(inst.f, strat), inst.f);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CycleStructureSweep,
                         ::testing::Values(1, 2, 3, 10, 63, 64, 65, 1000, 10000));

}  // namespace
}  // namespace sfcp
