// E6 — tree node labelling (Lemma 4.3): ablation of the three strategies
// (step 5 level-synchronous or by ancestor doubling after the Euler-tour
// steps 1-4, or steps 1-5 in one sequential walk per tree) on deep-path vs
// bushy vs mergeable forests.
#include <benchmark/benchmark.h>

#include "core/coarsest_partition.hpp"
#include "core/solver.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace {

using namespace sfcp;

graph::Instance shaped(std::size_t n, int kind, util::Rng& rng) {
  switch (kind) {
    case 0: return util::long_tail(n, 4, 2, rng);      // one deep path
    case 1: return util::bushy(n, 4, 4, 3, rng);       // shallow and wide
    default: return util::mergeable(n, 4, rng);        // many kept nodes
  }
}

template <core::TreeLabelStrategy S>
void BM_TreeLabeling(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const int kind = static_cast<int>(state.range(1));
  util::Rng rng(n * 31 + kind);
  const auto inst = shaped(n, kind, rng);
  core::Options opt = core::Options::parallel();
  opt.tree_labeling.strategy = S;
  core::Solver solver(opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(inst));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * static_cast<i64>(n));
  state.SetLabel(kind == 0 ? "deep_path" : kind == 1 ? "bushy" : "mergeable");
}

BENCHMARK(BM_TreeLabeling<core::TreeLabelStrategy::LevelSynchronous>)
    ->ArgsProduct({{1 << 14, 1 << 18}, {0, 1, 2}});
BENCHMARK(BM_TreeLabeling<core::TreeLabelStrategy::AncestorDoubling>)
    ->ArgsProduct({{1 << 14, 1 << 18}, {0, 1, 2}});
BENCHMARK(BM_TreeLabeling<core::TreeLabelStrategy::SequentialDFS>)
    ->ArgsProduct({{1 << 14, 1 << 18}, {0, 1, 2}});

}  // namespace
