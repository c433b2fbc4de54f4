// Unit tests for Section 3: cycle node labelling and Algorithm partition.
#include <gtest/gtest.h>

#include "core/baselines.hpp"
#include "core/cycle_labeling.hpp"
#include "core/verify.hpp"
#include "graph/cycle_structure.hpp"
#include "prim/rename.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

using core::CycleLabeling;
using core::CycleLabelingOptions;
using core::label_cycles;
using core::partition_equal_strings;
using core::RenameBackend;
using graph::cycle_structure;

TEST(PartitionEqualStrings, EmptyAndSingle) {
  std::vector<u32> flat;
  EXPECT_TRUE(partition_equal_strings(flat, 0, 1).empty());
  flat = {7, 8};
  const auto rep = partition_equal_strings(flat, 1, 2);
  EXPECT_EQ(rep.size(), 1u);
}

TEST(PartitionEqualStrings, EqualAndUnequal) {
  // strings: (1,2) (3,4) (1,2) (1,3)
  std::vector<u32> flat{1, 2, 3, 4, 1, 2, 1, 3};
  for (auto backend : {RenameBackend::Hashed, RenameBackend::Sorted}) {
    const auto rep = partition_equal_strings(flat, 4, 2, backend);
    EXPECT_EQ(rep[0], rep[2]);
    EXPECT_NE(rep[0], rep[1]);
    EXPECT_NE(rep[0], rep[3]);
    EXPECT_NE(rep[1], rep[3]);
  }
}

TEST(PartitionEqualStrings, LengthOne) {
  std::vector<u32> flat{5, 5, 9};
  const auto rep = partition_equal_strings(flat, 3, 1);
  EXPECT_EQ(rep[0], rep[1]);
  EXPECT_NE(rep[0], rep[2]);
}

TEST(PartitionEqualStrings, RandomMatchesDirectComparison) {
  util::Rng rng(901);
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t L = std::size_t{1} << rng.below(7);  // 1..64
    const std::size_t k = 1 + rng.below(50);
    std::vector<u32> flat(k * L);
    for (auto& v : flat) v = rng.below_u32(3);  // few symbols -> many collisions
    for (auto backend : {RenameBackend::Hashed, RenameBackend::Sorted}) {
      const auto rep = partition_equal_strings(flat, k, L, backend);
      for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = i + 1; j < k; ++j) {
          const bool equal = std::equal(flat.begin() + static_cast<std::ptrdiff_t>(i * L),
                                        flat.begin() + static_cast<std::ptrdiff_t>((i + 1) * L),
                                        flat.begin() + static_cast<std::ptrdiff_t>(j * L));
          EXPECT_EQ(rep[i] == rep[j], equal)
              << "k=" << k << " L=" << L << " i=" << i << " j=" << j;
        }
      }
    }
  }
}

CycleLabeling label(const graph::Instance& inst, RenameBackend backend = RenameBackend::Hashed) {
  const auto cs = cycle_structure(inst.f, graph::CycleStructureStrategy::Sequential);
  CycleLabelingOptions opt;
  opt.partition_backend = backend;
  return label_cycles(inst, cs, opt);
}

TEST(CycleLabeling, PaperExample31) {
  // Example 3.1/2.2: cycles C (len 12, period 4) and D (len 4, period 4)
  // are equivalent; the paper's Q has 4 labels on the cycles.
  const auto inst = util::paper_example_2_2();
  const auto cl = label(inst);
  EXPECT_EQ(cl.num_classes, 1u);  // C and D equivalent
  EXPECT_EQ(cl.num_labels, 4u);
  // Paper: nodes {1,3,9,13}, {2,6,5,14}, {4,12,10,15}, {8,11,7,16} share
  // labels (1-based).  Check a few 0-based pairs.
  EXPECT_EQ(cl.q[0], cl.q[2]);    // 1 ~ 3
  EXPECT_EQ(cl.q[0], cl.q[8]);    // 1 ~ 9
  EXPECT_EQ(cl.q[0], cl.q[12]);   // 1 ~ 13
  EXPECT_EQ(cl.q[1], cl.q[13]);   // 2 ~ 14
  EXPECT_EQ(cl.q[3], cl.q[14]);   // 4 ~ 15
  EXPECT_EQ(cl.q[7], cl.q[15]);   // 8 ~ 16
  EXPECT_NE(cl.q[0], cl.q[3]);    // 1 !~ 4 (paper notes this explicitly)
}

TEST(CycleLabeling, SingleSelfLoop) {
  graph::Instance inst{{0}, {5}};
  const auto cl = label(inst);
  EXPECT_EQ(cl.num_labels, 1u);
  EXPECT_EQ(cl.q[0], 0u);
}

TEST(CycleLabeling, TwoIdenticalSelfLoops) {
  graph::Instance inst{{0, 1}, {5, 5}};
  const auto cl = label(inst);
  EXPECT_EQ(cl.num_classes, 1u);
  EXPECT_EQ(cl.q[0], cl.q[1]);
}

TEST(CycleLabeling, DifferentBLabelSelfLoops) {
  graph::Instance inst{{0, 1}, {5, 6}};
  const auto cl = label(inst);
  EXPECT_EQ(cl.num_classes, 2u);
  EXPECT_NE(cl.q[0], cl.q[1]);
}

TEST(CycleLabeling, RotatedCyclesAreEquivalent) {
  // Two 4-cycles with the same label necklace, rotated differently.
  graph::Instance inst;
  inst.f = {1, 2, 3, 0, 5, 6, 7, 4};
  inst.b = {1, 2, 3, 4, 3, 4, 1, 2};
  const auto cl = label(inst);
  EXPECT_EQ(cl.num_classes, 1u);
  EXPECT_EQ(cl.num_labels, 4u);
  EXPECT_EQ(cl.q[0], cl.q[6]);  // both carry label 1 at necklace position of '1'
}

TEST(CycleLabeling, BackendsAgree) {
  util::Rng rng(907);
  for (int iter = 0; iter < 25; ++iter) {
    const auto inst = util::random_permutation(1 + rng.below(800), 2, rng);
    const auto hashed = label(inst, RenameBackend::Hashed);
    const auto sorted = label(inst, RenameBackend::Sorted);
    EXPECT_EQ(hashed.q, sorted.q) << "labels must be identical after canonical base assignment";
  }
}

TEST(CycleLabeling, MatchesOracleOnPermutations) {
  util::Rng rng(911);
  for (int iter = 0; iter < 25; ++iter) {
    const auto inst = util::random_permutation(1 + rng.below(600), 3, rng);
    const auto cl = label(inst);
    const auto oracle = core::solve_naive_refinement(inst);
    EXPECT_TRUE(core::same_partition(cl.q, oracle.q)) << "iter " << iter;
  }
}

TEST(CycleLabeling, EqualCyclesClassCount) {
  util::Rng rng(919);
  // 8 cycles of length 16 drawn from 3 patterns: classes <= 3.
  const auto inst = util::equal_cycles(8, 16, 3, 4, rng);
  const auto cl = label(inst);
  EXPECT_LE(cl.num_classes, 3u);
  const auto oracle = core::solve_naive_refinement(inst);
  EXPECT_TRUE(core::same_partition(cl.q, oracle.q));
}

// A permutation instance with one cycle per string: the cycle's nodes, in
// successor order starting from a random offset, carry the string's labels.
graph::Instance cycles_of(const std::vector<std::vector<u32>>& strings, util::Rng& rng) {
  graph::Instance inst;
  for (const auto& s : strings) {
    const u32 base = static_cast<u32>(inst.f.size());
    const u32 len = static_cast<u32>(s.size());
    const u32 shift = rng.below_u32(len);
    for (u32 i = 0; i < len; ++i) {
      inst.f.push_back(base + (i + 1) % len);
      inst.b.push_back(s[(i + shift) % len]);
    }
  }
  return inst;
}

// Labels from both backends must be identical and partition like the oracle.
void expect_backends_match_oracle(const graph::Instance& inst) {
  const auto hashed = label(inst, RenameBackend::Hashed);
  const auto sorted = label(inst, RenameBackend::Sorted);
  EXPECT_EQ(hashed.q, sorted.q);
  EXPECT_EQ(hashed.class_id, sorted.class_id);
  EXPECT_TRUE(core::same_partition(hashed.q, core::solve_naive_refinement(inst).q));
}

TEST(CycleLabeling, AllDistinctPeriods) {
  // "0 1 ... 1" is primitive at every length, so every period group holds
  // one cycle and no group runs the string partition.
  util::Rng rng(929);
  std::vector<std::vector<u32>> strings;
  for (u32 len = 1; len <= 40; ++len) {
    std::vector<u32> s(len, 1);
    s[0] = 0;
    strings.push_back(s);
  }
  const auto inst = cycles_of(strings, rng);
  const auto cl = label(inst);
  EXPECT_EQ(cl.num_classes, strings.size());
  expect_backends_match_oracle(inst);
}

TEST(CycleLabeling, MixedSingletonAndMultiCycleGroups) {
  util::Rng rng(937);
  for (int iter = 0; iter < 20; ++iter) {
    // Periods 1..12; a period draws zero to three cycles, some of them
    // copies of an earlier string (rotated by cycles_of), some fresh.
    std::vector<std::vector<u32>> strings;
    for (u32 len = 1; len <= 12; ++len) {
      const u32 count = rng.below_u32(4);
      for (u32 c = 0; c < count; ++c) {
        if (c > 0 && rng.below_u32(2) == 0) {
          strings.push_back(strings.back());
          continue;
        }
        std::vector<u32> s(len);
        for (auto& x : s) x = rng.below_u32(3);
        strings.push_back(s);
      }
    }
    if (strings.empty()) continue;
    expect_backends_match_oracle(cycles_of(strings, rng));
  }
}

}  // namespace
}  // namespace sfcp
