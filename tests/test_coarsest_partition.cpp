// Integration tests for the full Theorem 5.1 pipeline: all strategy
// combinations, shaped instances, and determinism.
#include <gtest/gtest.h>

#include "core/baselines.hpp"
#include "core/coarsest_partition.hpp"
#include "core/verify.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

using core::Options;
using core::Result;
using core::solve;
using core::solve_naive_refinement;

TEST(Solve, EmptyInstance) {
  graph::Instance inst;
  const Result r = solve(inst);
  EXPECT_EQ(r.num_blocks, 0u);
  EXPECT_TRUE(r.q.empty());
}

TEST(Solve, ThrowsOnMalformedInput) {
  graph::Instance inst;
  inst.f = {3};
  inst.b = {0};
  EXPECT_THROW(solve(inst), std::invalid_argument);
}

TEST(Solve, SingleSelfLoop) {
  graph::Instance inst{{0}, {7}};
  const Result r = solve(inst);
  EXPECT_EQ(r.num_blocks, 1u);
  EXPECT_EQ(r.q[0], 0u);
  EXPECT_EQ(r.num_cycles, 1u);
}

TEST(Solve, LabelsAreCanonical) {
  util::Rng rng(1201);
  const auto inst = util::random_function(500, 3, rng);
  const Result r = solve(inst);
  // First-occurrence canonical labels: each new label is the next integer.
  u32 next = 0;
  for (const u32 q : r.q) {
    ASSERT_LE(q, next);
    if (q == next) ++next;
  }
  EXPECT_EQ(next, r.num_blocks);
}

TEST(Solve, ParallelAndSequentialPresetsIdentical) {
  util::Rng rng(1203);
  for (int iter = 0; iter < 20; ++iter) {
    const auto inst = util::random_function(1 + rng.below(2000), 1 + rng.below_u32(6), rng);
    const Result par = solve(inst, Options::parallel());
    const Result seq = solve(inst, Options::sequential());
    EXPECT_EQ(par.q, seq.q) << "iter " << iter;
    EXPECT_EQ(par.num_blocks, seq.num_blocks);
    EXPECT_EQ(par.num_cycles, seq.num_cycles);
    EXPECT_EQ(par.cycle_nodes, seq.cycle_nodes);
    EXPECT_EQ(par.kept_tree_nodes, seq.kept_tree_nodes);
    EXPECT_EQ(par.residual_tree_nodes, seq.residual_tree_nodes);
  }
}

// The default pipeline and the sequential oracle against the independent
// baselines, on random functions and on the strategy matrix's adversarial
// shapes.  Canonical labellings must be identical.
void expect_presets_match_baselines(const graph::Instance& inst, const char* what) {
  const auto naive = solve_naive_refinement(inst).q;
  const auto hopcroft = core::solve_hopcroft(inst).q;
  for (const bool sequential : {false, true}) {
    const Result r = solve(inst, sequential ? Options::sequential() : Options::parallel());
    EXPECT_EQ(r.q, naive) << what << (sequential ? ", sequential" : ", parallel");
    EXPECT_EQ(r.q, hopcroft) << what << (sequential ? ", sequential" : ", parallel");
  }
}

TEST(Solve, MatchesAllBaselines) {
  util::Rng rng(1207);
  for (int iter = 0; iter < 20; ++iter) {
    const auto inst = util::random_function(1 + rng.below(1500), 1 + rng.below_u32(4), rng);
    expect_presets_match_baselines(inst, "random function");
    EXPECT_EQ(solve(inst).q, core::solve_label_doubling(inst).q);
  }
  util::Rng shape_rng(13003);
  expect_presets_match_baselines(util::random_permutation(512, 3, shape_rng), "permutation");
  expect_presets_match_baselines(util::long_tail(512, 8, 2, shape_rng), "long tail");
  expect_presets_match_baselines(util::bushy(512, 4, 32, 2, shape_rng), "bushy");
  expect_presets_match_baselines(util::equal_cycles(16, 32, 3, 3, shape_rng), "equal cycles");
  expect_presets_match_baselines(util::mergeable(512, 8, shape_rng), "mergeable");
  expect_presets_match_baselines(util::splitter_free_cycle(2048, 3, shape_rng),
                                 "splitter-free cycle");
}

TEST(Solve, Idempotence) {
  // Running SFCP with B := Q returns Q itself (Q is the fixpoint).
  util::Rng rng(1213);
  const auto inst = util::random_function(800, 3, rng);
  const Result r1 = solve(inst);
  graph::Instance again{inst.f, r1.q};
  const Result r2 = solve(again);
  EXPECT_EQ(r1.q, r2.q);
}

TEST(Solve, CoarserBGivesCoarserQ) {
  util::Rng rng(1217);
  const auto inst = util::random_function(600, 4, rng);
  graph::Instance coarser = inst;
  for (auto& b : coarser.b) b /= 2;  // merge label pairs
  EXPECT_LE(solve(coarser).num_blocks, solve(inst).num_blocks);
}

TEST(Solve, SingletonBlocksWhenAllBLabelsDistinct) {
  graph::Instance inst;
  const std::size_t n = 100;
  inst.f.resize(n);
  inst.b.resize(n);
  util::Rng rng(1219);
  for (u32 x = 0; x < n; ++x) {
    inst.f[x] = rng.below_u32(n);
    inst.b[x] = x;  // all distinct
  }
  EXPECT_EQ(solve(inst).num_blocks, n);
}

TEST(Solve, StatsAreConsistent) {
  util::Rng rng(1223);
  const auto inst = util::random_function(3000, 3, rng);
  const Result r = solve(inst);
  EXPECT_EQ(r.cycle_nodes + r.kept_tree_nodes + r.residual_tree_nodes, 3000u);
  EXPECT_GE(r.num_cycles, 1u);
  EXPECT_GE(r.cycle_nodes, r.num_cycles);
}

struct NamedOptions {
  const char* name;
  Options opt;
};

std::vector<NamedOptions> strategy_matrix() {
  std::vector<NamedOptions> out;
  for (const auto cd : {graph::CycleDetectStrategy::Sequential,
                        graph::CycleDetectStrategy::FunctionPowers,
                        graph::CycleDetectStrategy::EulerTour}) {
    for (const auto msp : {strings::MspStrategy::Booth, strings::MspStrategy::Simple,
                           strings::MspStrategy::Efficient}) {
      for (const auto backend : {core::RenameBackend::Hashed, core::RenameBackend::Sorted}) {
        Options o = Options::parallel();
        o.cycle_detect = cd;
        o.cycle_labeling.msp = msp;
        o.cycle_labeling.partition_backend = backend;
        out.push_back({"combo", o});
      }
    }
  }
  return out;
}

TEST(Solve, FullStrategyMatrixAgrees) {
  util::Rng rng(1229);
  const auto inst = util::random_function(700, 2, rng);
  const Result ref = solve(inst, Options::sequential());
  for (const auto& [name, opt] : strategy_matrix()) {
    const Result r = solve(inst, opt);
    EXPECT_EQ(r.q, ref.q);
  }
}

class SolveShapes : public ::testing::TestWithParam<int> {};

TEST_P(SolveShapes, ShapedInstancesMatchOracle) {
  util::Rng rng(1300 + GetParam());
  graph::Instance inst;
  switch (GetParam()) {
    case 0: inst = util::random_permutation(1200, 3, rng); break;
    case 1: inst = util::long_tail(1200, 10, 2, rng); break;
    case 2: inst = util::bushy(1200, 5, 4, 3, rng); break;
    case 3: inst = util::mergeable(1200, 4, rng); break;
    case 4: inst = util::equal_cycles(30, 40, 4, 3, rng); break;
    case 5: inst = util::long_tail(1200, 1, 2, rng); break;   // self-loop + path
    case 6: inst = util::equal_cycles(1, 1024, 1, 2, rng); break;  // one big cycle
    default: inst = util::random_function(1200, 3, rng); break;
  }
  const Result r = solve(inst);
  const auto report = core::verify_solution(inst, r.q);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

INSTANTIATE_TEST_SUITE_P(Shapes, SolveShapes, ::testing::Range(0, 8));

TEST(Solve, LargeRandomInstance) {
  util::Rng rng(1301);
  const auto inst = util::random_function(200000, 4, rng);
  const Result r = solve(inst);
  EXPECT_TRUE(core::is_refinement(r.q, inst.b));
  EXPECT_TRUE(core::is_stable(r.q, inst.f));
  EXPECT_EQ(r.q, solve_naive_refinement(inst).q);
}

}  // namespace
}  // namespace sfcp
