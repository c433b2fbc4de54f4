// Unit tests for list ranking (sequential / pointer jumping / ruling set)
// and for ruling-set orbit ranking of permutations.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "pram/execution_context.hpp"
#include "prim/list_ranking.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

using prim::list_rank;
using prim::ListRankStrategy;

// Builds a successor array holding the given chains (each a vector of node
// ids ending the list).
std::vector<u32> chains_to_next(std::size_t n, const std::vector<std::vector<u32>>& chains) {
  std::vector<u32> next(n, kNone);
  for (const auto& c : chains) {
    for (std::size_t i = 0; i + 1 < c.size(); ++i) next[c[i]] = c[i + 1];
  }
  return next;
}

std::vector<u32> reference_ranks(std::span<const u32> next) {
  std::vector<u32> rank(next.size(), 0);
  for (u32 v = 0; v < next.size(); ++v) {
    u32 r = 0, w = v;
    while (next[w] != kNone) {
      w = next[w];
      ++r;
    }
    rank[v] = r;
  }
  return rank;
}

class ListRankStrategies : public ::testing::TestWithParam<ListRankStrategy> {};

TEST_P(ListRankStrategies, Empty) {
  std::vector<u32> next;
  EXPECT_TRUE(list_rank(next, GetParam()).empty());
}

TEST_P(ListRankStrategies, SingleNode) {
  std::vector<u32> next{kNone};
  EXPECT_EQ(list_rank(next, GetParam()), (std::vector<u32>{0}));
}

TEST_P(ListRankStrategies, SimpleChain) {
  // 2 -> 0 -> 1 (end)
  std::vector<u32> next{1, kNone, 0};
  EXPECT_EQ(list_rank(next, GetParam()), (std::vector<u32>{1, 0, 2}));
}

TEST_P(ListRankStrategies, TwoChains) {
  const auto next = chains_to_next(6, {{0, 2, 4}, {1, 3, 5}});
  EXPECT_EQ(list_rank(next, GetParam()), reference_ranks(next));
}

TEST_P(ListRankStrategies, LongChainExactRanks) {
  const std::size_t n = 10000;
  // identity chain 0 -> 1 -> ... -> n-1
  std::vector<u32> next(n);
  for (u32 i = 0; i < n; ++i) next[i] = i + 1 < n ? i + 1 : kNone;
  const auto rank = list_rank(next, GetParam());
  for (u32 i = 0; i < n; ++i) EXPECT_EQ(rank[i], n - 1 - i);
}

TEST_P(ListRankStrategies, RandomManyChainsMatchReference) {
  util::Rng rng(55);
  for (int iter = 0; iter < 10; ++iter) {
    const std::size_t n = 1 + rng.below(3000);
    std::vector<u32> perm(n);
    std::iota(perm.begin(), perm.end(), 0u);
    for (std::size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.below(i)]);
    // Random chain boundaries.
    std::vector<std::vector<u32>> chains;
    std::size_t pos = 0;
    while (pos < n) {
      const std::size_t len = 1 + rng.below(std::min<std::size_t>(n - pos, 200));
      chains.emplace_back(perm.begin() + static_cast<std::ptrdiff_t>(pos),
                          perm.begin() + static_cast<std::ptrdiff_t>(pos + len));
      pos += len;
    }
    const auto next = chains_to_next(n, chains);
    EXPECT_EQ(list_rank(next, GetParam()), reference_ranks(next)) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ListRankStrategies,
                         ::testing::Values(ListRankStrategy::Sequential,
                                           ListRankStrategy::PointerJumping,
                                           ListRankStrategy::RulingSet));

TEST(ListRankAgreement, StrategiesAgreeOnLargeInput) {
  util::Rng rng(77);
  const std::size_t n = 50000;
  std::vector<u32> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  for (std::size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.below(i)]);
  std::vector<u32> next(n, kNone);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (!rng.chance(0.001)) next[perm[i]] = perm[i + 1];  // occasional list breaks
  }
  const auto seq = list_rank(next, ListRankStrategy::Sequential);
  EXPECT_EQ(list_rank(next, ListRankStrategy::PointerJumping), seq);
  EXPECT_EQ(list_rank(next, ListRankStrategy::RulingSet), seq);
}

// ---- rank_orbits ---------------------------------------------------------

struct Orbits {
  std::vector<u32> leader, rank, length;
};

constexpr u32 kUntouched = 0xABCDu;

// Sequential reference: walk each orbit once for its minimum and length,
// then once more for the ranks.
Orbits reference_orbits(std::span<const u32> succ, std::span<const u8> active) {
  const std::size_t n = succ.size();
  Orbits o{std::vector<u32>(n, kUntouched), std::vector<u32>(n, kUntouched),
           std::vector<u32>(n, kUntouched)};
  for (u32 x = 0; x < n; ++x) {
    if ((!active.empty() && !active[x]) || o.leader[x] != kUntouched) continue;
    u32 lead = x, len = 0;
    u32 v = x;
    do {
      lead = std::min(lead, v);
      ++len;
      v = succ[v];
    } while (v != x);
    u32 r = 0;
    v = lead;
    do {
      o.leader[v] = lead;
      o.rank[v] = r++;
      o.length[v] = len;
      v = succ[v];
    } while (v != lead);
  }
  return o;
}

// rank_orbits at one thread and on the pool (two lanes, grain 64, so every
// round of these inputs splits), each compared with the reference; the
// leader-only form must give the same leaders.
void expect_orbits_match(std::span<const u32> succ, std::span<const u8> active = {}) {
  const Orbits want = reference_orbits(succ, active);
  for (const auto& ctx : {pram::ExecutionContext{}.with_threads(1),
                          pram::ExecutionContext{}.with_threads(2).with_grain(64)}) {
    pram::ScopedContext guard(ctx);
    const std::size_t n = succ.size();
    Orbits got{std::vector<u32>(n, kUntouched), std::vector<u32>(n, kUntouched),
               std::vector<u32>(n, kUntouched)};
    prim::rank_orbits(succ, active, got.leader, got.rank, got.length);
    EXPECT_EQ(got.leader, want.leader) << "threads=" << ctx.threads;
    EXPECT_EQ(got.rank, want.rank) << "threads=" << ctx.threads;
    EXPECT_EQ(got.length, want.length) << "threads=" << ctx.threads;
    std::vector<u32> leaders(n, kUntouched);
    prim::rank_orbits(succ, active, leaders, {}, {});
    EXPECT_EQ(leaders, want.leader) << "threads=" << ctx.threads;
  }
}

// One cycle through `nodes` in the given order.
void close_cycle(std::vector<u32>& succ, std::span<const u32> nodes) {
  for (std::size_t i = 0; i < nodes.size(); ++i) succ[nodes[i]] = nodes[(i + 1) % nodes.size()];
}

std::vector<u32> shuffled_ids(std::size_t n, util::Rng& rng) {
  std::vector<u32> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  for (std::size_t i = n; i > 1; --i) std::swap(ids[i - 1], ids[rng.below(i)]);
  return ids;
}

TEST(RankOrbits, Empty) { expect_orbits_match({}); }

TEST(RankOrbits, SelfLoops) {
  std::vector<u32> succ(3000);
  std::iota(succ.begin(), succ.end(), 0u);
  expect_orbits_match(succ);
}

TEST(RankOrbits, TwoCycles) {
  std::vector<u32> succ(3001);
  for (u32 x = 0; x + 1 < succ.size(); x += 2) {
    succ[x] = x + 1;
    succ[x + 1] = x;
  }
  succ.back() = static_cast<u32>(succ.size() - 1);  // odd one out: a self-loop
  expect_orbits_match(succ);
}

TEST(RankOrbits, OneLongCycle) {
  util::Rng rng(71);
  std::vector<u32> succ(1 << 16);
  close_cycle(succ, shuffled_ids(succ.size(), rng));
  expect_orbits_match(succ);
}

TEST(RankOrbits, RandomPermutation) {
  util::Rng rng(73);
  const auto inst = util::random_permutation(50000, 2, rng);
  expect_orbits_match(inst.f);
}

TEST(RankOrbits, ActiveSubset) {
  util::Rng rng(79);
  const std::size_t n = 20000;
  std::vector<u32> succ(n, kNone);  // inactive entries must never be read
  std::vector<u8> active(n, 0);
  std::vector<u32> ids = shuffled_ids(n, rng);
  ids.resize(n / 3);
  for (const u32 x : ids) active[x] = 1;
  // Cycles of lengths 1, 2, 3, ... over the active ids.
  std::size_t pos = 0;
  for (std::size_t len = 1; pos < ids.size(); ++len) {
    const std::size_t take = std::min(len, ids.size() - pos);
    close_cycle(succ, std::span<const u32>(ids).subspan(pos, take));
    pos += take;
  }
  expect_orbits_match(succ, active);
}

// No sampled id lies on the long cycle, so every one of its elements takes
// the splitter-free path: as an active subset of unsampled ids, and inside a
// full permutation whose sampled ids are self-loops.
TEST(RankOrbits, SplitterFreeOrbits) {
  util::Rng rng(83);
  const std::size_t n = 1 << 15;
  std::vector<u32> succ(n, kNone);
  std::vector<u8> active(n, 0);
  std::vector<u32> unsampled;
  for (const u32 x : shuffled_ids(n, rng)) {
    if (!prim::is_ruling_splitter(x)) unsampled.push_back(x);
  }
  for (const u32 x : unsampled) active[x] = 1;
  close_cycle(succ, unsampled);
  expect_orbits_match(succ, active);

  const auto inst = util::splitter_free_cycle(n, 2, rng);
  expect_orbits_match(inst.f);
}

}  // namespace
}  // namespace sfcp
