// E3 — minimal starting point: Booth / Duval sequential references vs the
// paper's simple (O(n log n) ops) and efficient (O(n log log n) ops)
// parallel algorithms (Lemma 3.7), and the one-pass period-and-m.s.p.
// kernel cycle labelling runs per cycle when there are many.
#include <benchmark/benchmark.h>

#include "strings/msp.hpp"
#include "strings/period.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace {

using namespace sfcp;

std::vector<u32> input_for(std::size_t n, int kind) {
  util::Rng rng(n * 10 + kind);
  switch (kind) {
    case 0: return util::random_string(n, 1u << 16, rng);   // large alphabet
    case 1: return util::random_string(n, 2, rng);          // binary
    default: return util::runs_string(n, 3, 32, rng);       // adversarial runs
  }
}

template <strings::MspStrategy S>
void BM_Msp(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const int kind = static_cast<int>(state.range(1));
  const auto s = input_for(n, kind);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strings::minimal_starting_point(s, S));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * static_cast<i64>(n));
  state.SetLabel(kind == 0 ? "large_sigma" : kind == 1 ? "binary" : "runs");
}

BENCHMARK(BM_Msp<strings::MspStrategy::Booth>)
    ->ArgsProduct({{1 << 12, 1 << 16, 1 << 20}, {0, 1, 2}});

void BM_PeriodAndMsp(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const int kind = static_cast<int>(state.range(1));
  const auto s = input_for(n, kind);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strings::period_and_msp(s));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * static_cast<i64>(n));
  state.SetLabel(kind == 0 ? "large_sigma" : kind == 1 ? "binary" : "runs");
}
BENCHMARK(BM_PeriodAndMsp)->ArgsProduct({{1 << 12, 1 << 16, 1 << 20}, {0, 1, 2}});

BENCHMARK(BM_Msp<strings::MspStrategy::Duval>)
    ->ArgsProduct({{1 << 12, 1 << 16, 1 << 20}, {0, 1, 2}});
BENCHMARK(BM_Msp<strings::MspStrategy::Simple>)
    ->ArgsProduct({{1 << 12, 1 << 16, 1 << 20}, {0, 1, 2}});
BENCHMARK(BM_Msp<strings::MspStrategy::Efficient>)
    ->ArgsProduct({{1 << 12, 1 << 16, 1 << 20}, {0, 1, 2}});

void BM_PeriodSeq(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  const auto s = util::periodic_string(n, n / 8, 3, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strings::smallest_period_seq(s));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * static_cast<i64>(n));
}
BENCHMARK(BM_PeriodSeq)->Range(1 << 12, 1 << 20);

void BM_PeriodParallel(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  const auto s = util::periodic_string(n, n / 8, 3, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strings::smallest_period_parallel(s));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * static_cast<i64>(n));
}
BENCHMARK(BM_PeriodParallel)->Range(1 << 12, 1 << 18);

}  // namespace
