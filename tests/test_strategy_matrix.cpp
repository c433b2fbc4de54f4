// Strategy-matrix cross-validation: every registered strategy combination
// must produce bit-identical canonical Q-labels.  This is the strongest
// internal-consistency check in the suite — a bug in any one strategy shows
// up as a mismatch against the other combinations.
//
// The detect x structure x tree lattice is enumerated straight from
// sfcp::registry(); the m.s.p. and rename-backend dimensions (which the
// registry keeps at their defaults) get their own sweep on top of it.
#include <gtest/gtest.h>

#include <string>

#include "core/registry.hpp"
#include "core/solver.hpp"
#include "core/verify.hpp"
#include "pram/execution_context.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

class StrategyMatrix : public ::testing::TestWithParam<std::string> {
 protected:
  core::Options options() const { return sfcp::registry().at(GetParam()); }
};

TEST_P(StrategyMatrix, AgreesWithDefaultOnRandomInstances) {
  core::Solver solver(options());
  util::Rng rng(13001);
  for (int iter = 0; iter < 8; ++iter) {
    const auto inst = util::random_function(1 + rng.below(800), 1 + rng.below(4), rng);
    const auto got = solver.solve(inst);
    const auto want = core::solve(inst);
    EXPECT_EQ(got.q, want.q) << "iter " << iter;
    EXPECT_EQ(got.num_blocks, want.num_blocks);
  }
}

TEST_P(StrategyMatrix, AgreesOnAdversarialShapes) {
  core::Solver solver(options());
  util::Rng rng(13003);
  const auto shapes = {
      util::random_permutation(512, 3, rng),   // pure cycles
      util::long_tail(512, 8, 2, rng),         // deepest trees
      util::bushy(512, 4, 32, 2, rng),         // widest trees
      util::equal_cycles(16, 32, 3, 3, rng),   // Algorithm partition stress
      util::mergeable(512, 8, rng),            // high coarseness
      util::splitter_free_cycle(2048, 3, rng), // no ruling-set splitter on the cycle
  };
  for (const auto& inst : shapes) {
    const auto got = solver.solve(inst);
    const auto report = core::verify_solution(inst, got.q);
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_EQ(got.q, core::solve(inst).q);
    EXPECT_EQ(got.q, core::solve(inst, core::Options::sequential()).q);
  }
}

TEST_P(StrategyMatrix, ThreadCountInvariance) {
  util::Rng rng(13007);
  const auto inst = util::random_function(600, 3, rng);
  const auto want = core::solve(inst, options());
  for (int t : {1, 2, 8}) {
    core::Solver solver(options(), pram::ExecutionContext{}.with_threads(t));
    EXPECT_EQ(solver.solve(inst).q, want.q) << "threads=" << t;
  }
}

std::string matrix_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string s = info.param;
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(Registry, StrategyMatrix,
                         ::testing::ValuesIn(sfcp::registry().names()), matrix_name);

// The m.s.p. and partition-backend dimensions, swept against the default
// pipeline on the Algorithm-partition stress shapes where they matter.
using MspBackendCombo = std::tuple<strings::MspStrategy, core::RenameBackend, bool>;

class MspBackendSweep : public ::testing::TestWithParam<MspBackendCombo> {};

TEST_P(MspBackendSweep, AgreesWithDefault) {
  const auto& [msp, backend, parallel_period] = GetParam();
  core::Options opt;
  opt.cycle_labeling.msp = msp;
  opt.cycle_labeling.partition_backend = backend;
  opt.cycle_labeling.parallel_period = parallel_period;
  core::Solver solver(opt);
  util::Rng rng(13011);
  const auto shapes = {
      util::random_permutation(512, 3, rng),
      util::equal_cycles(16, 32, 3, 3, rng),
      util::equal_cycles(64, 8, 2, 2, rng),
      util::random_function(777, 2, rng),
  };
  for (const auto& inst : shapes) {
    EXPECT_EQ(solver.solve(inst).q, core::solve(inst).q);
  }
}

std::string msp_backend_name(const ::testing::TestParamInfo<MspBackendCombo>& info) {
  const auto& [msp, backend, parallel_period] = info.param;
  std::string s;
  switch (msp) {
    case strings::MspStrategy::Brute: s += "MspBrute"; break;
    case strings::MspStrategy::Booth: s += "MspBooth"; break;
    case strings::MspStrategy::Duval: s += "MspDuval"; break;
    case strings::MspStrategy::Simple: s += "MspSimple"; break;
    case strings::MspStrategy::Efficient: s += "MspEff"; break;
  }
  s += backend == core::RenameBackend::Hashed ? "Hash" : "Sort";
  s += parallel_period ? "ParPeriod" : "SeqPeriod";
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    Combos, MspBackendSweep,
    ::testing::Combine(::testing::Values(strings::MspStrategy::Brute, strings::MspStrategy::Booth,
                                         strings::MspStrategy::Duval, strings::MspStrategy::Simple,
                                         strings::MspStrategy::Efficient),
                       ::testing::Values(core::RenameBackend::Hashed, core::RenameBackend::Sorted),
                       ::testing::Bool()),
    msp_backend_name);

}  // namespace
}  // namespace sfcp
