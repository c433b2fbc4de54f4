// Failure injection and degenerate-input sweeps: every public entry point
// must either handle the edge case or reject it with a typed exception —
// never crash or return garbage.
#include <gtest/gtest.h>

#include "core/baselines.hpp"
#include "core/coarsest_partition.hpp"
#include "core/moore.hpp"
#include "core/verify.hpp"
#include "graph/orbits.hpp"
#include "strings/matching.hpp"
#include "strings/msp.hpp"
#include "strings/necklace.hpp"
#include "strings/period.hpp"
#include "strings/string_sort.hpp"
#include "strings/suffix_array.hpp"
#include "util/generators.hpp"
#include "util/io.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

TEST(FailureInjection, SolversRejectMalformedInstances) {
  graph::Instance bad_range{{9}, {0}};
  graph::Instance bad_size{{0, 1}, {0}};
  for (const auto* inst : {&bad_range, &bad_size}) {
    EXPECT_THROW(core::solve(*inst), std::invalid_argument);
    EXPECT_THROW(core::solve_naive_refinement(*inst), std::invalid_argument);
    EXPECT_THROW(core::solve_hopcroft(*inst), std::invalid_argument);
    EXPECT_THROW(core::solve_label_doubling(*inst), std::invalid_argument);
  }
}

TEST(FailureInjection, EmptyInputsEverywhere) {
  graph::Instance empty;
  EXPECT_EQ(core::solve(empty).num_blocks, 0u);
  EXPECT_EQ(core::solve_hopcroft(empty).num_blocks, 0u);
  std::vector<u32> s;
  EXPECT_EQ(strings::smallest_period_seq(s), 0u);
  EXPECT_EQ(strings::minimal_starting_point(s, strings::MspStrategy::Efficient), 0u);
  strings::StringList list;
  EXPECT_TRUE(strings::sort_strings(list).empty());
}

class DegenerateInstances : public ::testing::TestWithParam<int> {};

TEST_P(DegenerateInstances, SolveHandlesAllShapes) {
  graph::Instance inst;
  switch (GetParam()) {
    case 0:  // constant function onto node 0
      inst.f.assign(64, 0);
      inst.b.assign(64, 7);
      break;
    case 1:  // identity
      inst.f.resize(64);
      inst.b.assign(64, 1);
      for (u32 i = 0; i < 64; ++i) inst.f[i] = i;
      break;
    case 2: {  // one giant cycle, all equal labels
      inst.f.resize(64);
      inst.b.assign(64, 3);
      for (u32 i = 0; i < 64; ++i) inst.f[i] = (i + 1) % 64;
      break;
    }
    case 3: {  // one giant cycle, alternating labels (period 2)
      inst.f.resize(64);
      inst.b.resize(64);
      for (u32 i = 0; i < 64; ++i) {
        inst.f[i] = (i + 1) % 64;
        inst.b[i] = i % 2;
      }
      break;
    }
    case 4: {  // two nodes swapping
      inst.f = {1, 0};
      inst.b = {5, 5};
      break;
    }
    case 5: {  // maximal label values (u32 extremes)
      inst.f = {1, 0, 0};
      inst.b = {0xFFFFFFFEu, 0xFFFFFFFEu, 0x7FFFFFFFu};
      break;
    }
    case 6: {  // deep pure path into a self-loop
      const std::size_t n = 1000;
      inst.f.resize(n);
      inst.b.assign(n, 1);
      inst.f[0] = 0;
      for (u32 i = 1; i < n; ++i) inst.f[i] = i - 1;
      break;
    }
    default: {  // single node
      inst.f = {0};
      inst.b = {42};
      break;
    }
  }
  const auto r = core::solve(inst);
  const auto report = core::verify_solution(inst, r.q);
  EXPECT_TRUE(report.ok()) << "shape " << GetParam() << ": " << report.to_string();
  // Sequential preset must agree bit-for-bit.
  EXPECT_EQ(core::solve(inst, core::Options::sequential()).q, r.q);
}

INSTANTIATE_TEST_SUITE_P(Shapes, DegenerateInstances, ::testing::Range(0, 8));

TEST(FailureInjection, DegenerateCyclePeriods) {
  // Cycle labels with period exactly len, len/2, 1 — the period reduction
  // path in cycle labelling.
  for (const u32 period : {1u, 2u, 4u, 8u}) {
    graph::Instance inst;
    const u32 len = 8;
    inst.f.resize(len);
    inst.b.resize(len);
    for (u32 i = 0; i < len; ++i) {
      inst.f[i] = (i + 1) % len;
      inst.b[i] = i % period;
    }
    const auto r = core::solve(inst);
    EXPECT_EQ(r.num_blocks, period) << "period " << period;
  }
}

TEST(FailureInjection, StringsWithExtremeSymbols) {
  std::vector<u32> s{0xFFFFFFFEu, 0, 0xFFFFFFFEu, 1};
  EXPECT_EQ(strings::msp_booth(s), strings::msp_brute(s));
  EXPECT_EQ(strings::msp_efficient(s), strings::msp_brute(s));
  EXPECT_EQ(strings::msp_simple(s), strings::msp_brute(s));
}

TEST(FailureInjection, SingleStringSortAllStrategies) {
  strings::StringList list;
  list.push_back(std::vector<u32>{3, 1, 2});
  for (auto strat : {strings::StringSortStrategy::StdSort, strings::StringSortStrategy::MsdRadix,
                     strings::StringSortStrategy::Parallel}) {
    EXPECT_EQ(strings::sort_strings(list, strat).size(), 1u);
  }
}

TEST(FailureInjection, NewModulesEmptyInputs) {
  // Suffix array / LCP / matching / necklace / orbits on empty input.
  std::vector<u32> empty;
  EXPECT_TRUE(strings::build_suffix_array(empty).sa.empty());
  EXPECT_EQ(strings::count_distinct_substrings(empty), 0u);
  EXPECT_EQ(strings::find_occurrences(empty, empty, strings::MatchStrategy::Parallel),
            (std::vector<u32>{0}));
  EXPECT_TRUE(strings::canonical_necklace(empty).empty());
  EXPECT_EQ(strings::necklace_classes(strings::StringList{}).count, 0u);
  EXPECT_EQ(graph::orbit_stats(empty).num_cycles, 0u);
  EXPECT_TRUE(graph::compute_orbits(empty).tail.empty());
}

TEST(FailureInjection, MooreRejectsMalformed) {
  core::MooreMachine bad;
  bad.next = {3};
  bad.output = {0};
  EXPECT_THROW(core::minimize(bad), std::invalid_argument);
  EXPECT_THROW(core::isomorphic(bad, bad), std::invalid_argument);
  core::MooreMachine ok;
  ok.next = {0};
  ok.output = {0};
  EXPECT_THROW(core::states_equivalent(ok, 0, 9), std::out_of_range);
}

TEST(FailureInjection, OrbitsOnExtremeShapes) {
  // Self-loop forest: every node is its own cycle.
  std::vector<u32> loops(256);
  for (u32 i = 0; i < 256; ++i) loops[i] = i;
  const auto orb = graph::compute_orbits(loops);
  for (u32 i = 0; i < 256; ++i) {
    EXPECT_EQ(orb.tail[i], 0u);
    EXPECT_EQ(orb.cycle_len[i], 1u);
  }
  // All nodes funnel into one self-loop.
  std::vector<u32> funnel(256, 0);
  const auto st = graph::orbit_stats(funnel);
  EXPECT_EQ(st.num_cycles, 1u);
  EXPECT_EQ(st.max_tail, 1u);
}

TEST(FailureInjection, IterationTableZeroAndIdentity) {
  std::vector<u32> f{1, 2, 0};
  graph::IterationTable t(f, 1);
  EXPECT_EQ(t.apply(0, 0), 0u);  // f^0 = identity
  EXPECT_EQ(t.apply(0, 1), 1u);
  EXPECT_THROW(t.apply(0, 2), std::out_of_range);
}

TEST(FailureInjection, MatchingSingleSymbolAlphabet) {
  // Unary strings exercise the maximal-overlap paths of every matcher.
  std::vector<u32> text(100, 1), pattern(7, 1);
  for (auto strat : {strings::MatchStrategy::Kmp, strings::MatchStrategy::Z,
                     strings::MatchStrategy::Parallel}) {
    const auto hits = strings::find_occurrences(text, pattern, strat);
    ASSERT_EQ(hits.size(), 94u);
    for (u32 i = 0; i < 94; ++i) EXPECT_EQ(hits[i], i);
  }
}

}  // namespace
}  // namespace sfcp
