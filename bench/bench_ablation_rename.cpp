// A1 — ablation of the pair-renaming strategy.
//
// Two renamings realize the paper's label assignments:
//   * rename_sorted — order-preserving dense ranks via stable integer sort
//                     (required inside m.s.p. / string sorting, where the
//                     recursion depends on rank ORDER; the O(n log log n)
//                     term lives here)
//   * rename_hashed — arbitrary-CRCW BB-table simulation via the concurrent
//                     hash table (sufficient for Algorithm partition, where
//                     only equality of labels matters; O(n) expected work)
// The ablation quantifies what the BB-table trick buys over sorting.
#include <benchmark/benchmark.h>

#include "prim/integer_sort.hpp"
#include "prim/merge.hpp"
#include "prim/rename.hpp"
#include "util/random.hpp"

namespace {

using namespace sfcp;

std::vector<u64> make_keys(std::size_t n, u32 distinct, util::Rng& rng) {
  std::vector<u64> keys(n);
  for (auto& k : keys) k = pack_pair(rng.below(distinct), rng.below(distinct));
  return keys;
}

void BM_RenameSorted(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const u32 distinct = static_cast<u32>(state.range(1));
  util::Rng rng(n + distinct);
  const auto keys = make_keys(n, distinct, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prim::rename_sorted(keys));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * static_cast<i64>(n));
  state.SetLabel("distinct=" + std::to_string(distinct));
}
BENCHMARK(BM_RenameSorted)->ArgsProduct({{1 << 14, 1 << 18, 1 << 21}, {16, 1 << 10, 1 << 20}});

void BM_RenameHashed(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const u32 distinct = static_cast<u32>(state.range(1));
  util::Rng rng(n + distinct);
  const auto keys = make_keys(n, distinct, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prim::rename_hashed(keys));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * static_cast<i64>(n));
  state.SetLabel("distinct=" + std::to_string(distinct));
}
BENCHMARK(BM_RenameHashed)->ArgsProduct({{1 << 14, 1 << 18, 1 << 21}, {16, 1 << 10, 1 << 20}});

// Companion: the merge-path merge sort vs the radix sort underlying
// rename_sorted, on the same key distribution — quantifies why the library
// keeps the comparison sort only for the O(n/log n) residues.
void BM_SortRadix(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(n);
  const auto keys = make_keys(n, 1 << 20, rng);
  for (auto _ : state) {
    auto copy = keys;
    prim::radix_sort(copy);
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * static_cast<i64>(n));
}
BENCHMARK(BM_SortRadix)->Range(1 << 14, 1 << 21);

void BM_SortMergePath(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(n);
  const auto keys = make_keys(n, 1 << 20, rng);
  for (auto _ : state) {
    auto copy = keys;
    prim::parallel_merge_sort(std::span<u64>(copy));
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * static_cast<i64>(n));
}
BENCHMARK(BM_SortMergePath)->Range(1 << 14, 1 << 21);

}  // namespace
