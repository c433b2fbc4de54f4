// Tests for orbit analytics: tails, entries, binary lifting and stats.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/functional_graph.hpp"
#include "graph/orbits.hpp"
#include "graph/rooted_forest.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

using graph::compute_orbits;
using graph::IterationTable;
using graph::orbit_of;
using graph::orbit_stats;
using graph::Orbits;

// Reference: walk from every node with a visited-time map (Floyd-free,
// O(n^2) worst case, fine for test sizes).
Orbits brute_orbits(std::span<const u32> f) {
  const std::size_t n = f.size();
  const auto cs = graph::cycle_structure(f);
  Orbits out;
  out.tail.assign(n, 0);
  out.entry.assign(n, 0);
  out.cycle_id.assign(n, 0);
  out.cycle_len.assign(n, 0);
  for (std::size_t x = 0; x < n; ++x) {
    u32 cur = static_cast<u32>(x), t = 0;
    while (!cs.on_cycle[cur]) {
      cur = f[cur];
      ++t;
    }
    out.tail[x] = t;
    out.entry[x] = cur;
    out.cycle_id[x] = cs.cycle_of[cur];
    out.cycle_len[x] = cs.length[cur];
  }
  return out;
}

TEST(Orbits, PureCycleHasZeroTails) {
  util::Rng rng(6001);
  const auto inst = util::equal_cycles(16, 4, 2, 2, rng);
  const auto orb = compute_orbits(inst.f);
  for (std::size_t x = 0; x < inst.size(); ++x) {
    EXPECT_EQ(orb.tail[x], 0u);
    EXPECT_EQ(orb.entry[x], x);
  }
}

TEST(Orbits, MatchesBruteOnRandomFunctions) {
  util::Rng rng(6003);
  for (int iter = 0; iter < 25; ++iter) {
    const auto inst = util::random_function(1 + rng.below(500), 3, rng);
    const auto got = compute_orbits(inst.f);
    const auto want = brute_orbits(inst.f);
    EXPECT_EQ(got.tail, want.tail);
    EXPECT_EQ(got.entry, want.entry);
    EXPECT_EQ(got.cycle_id, want.cycle_id);
    EXPECT_EQ(got.cycle_len, want.cycle_len);
  }
}

TEST(Orbits, DeepPathWorstCase) {
  // f(x) = max(x-1, 0): one fixed point at 0, a single tail of depth n-1.
  const std::size_t n = 4096;
  std::vector<u32> f(n);
  for (std::size_t x = 0; x < n; ++x) f[x] = x == 0 ? 0 : static_cast<u32>(x - 1);
  const auto orb = compute_orbits(f);
  for (std::size_t x = 0; x < n; ++x) {
    EXPECT_EQ(orb.tail[x], static_cast<u32>(x));
    EXPECT_EQ(orb.entry[x], 0u);
    EXPECT_EQ(orb.cycle_len[x], 1u);
  }
}

TEST(Orbits, RhoIsOrbitSize) {
  util::Rng rng(6007);
  const auto inst = util::random_function(300, 2, rng);
  const auto orb = compute_orbits(inst.f);
  for (u32 x = 0; x < 20; ++x) {
    const auto path = orbit_of(inst.f, x);
    EXPECT_EQ(path.size(), orb.rho(x));
    // The orbit visits pairwise distinct nodes.
    auto sorted = path;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
    // And ends one step before re-entering the cycle entry point.
    EXPECT_EQ(inst.f[path.back()], orb.entry[x]);
  }
}

TEST(IterationTable, MatchesIterateFunction) {
  util::Rng rng(6011);
  const auto inst = util::random_function(200, 2, rng);
  IterationTable table(inst.f, 1 << 12);
  for (u64 k : {0ull, 1ull, 2ull, 3ull, 17ull, 100ull, 4095ull, 4096ull}) {
    const auto fk = graph::iterate_function(inst.f, k);
    for (u32 x = 0; x < inst.size(); x += 7) {
      EXPECT_EQ(table.apply(x, k), fk[x]) << "k=" << k << " x=" << x;
    }
  }
}

TEST(IterationTable, RejectsOutOfRange) {
  std::vector<u32> f{0, 0};
  IterationTable table(f, 8);
  EXPECT_THROW(table.apply(0, 1000), std::out_of_range);
  EXPECT_THROW(table.apply(2, 1), std::out_of_range);
  EXPECT_THROW(table.apply(2, 0), std::out_of_range);
}

TEST(IterationTable, LargestExponentBuildsOneLevelPerBit) {
  // 2^63 = 2 (mod 3), so f^(2^63) moves every node of the 3-cycle by two.
  const std::vector<u32> f{1, 2, 0};
  IterationTable table(f, ~u64{0});
  EXPECT_EQ(table.num_levels(), 64);
  EXPECT_EQ(table.apply(0, u64{1} << 63), 2u);
  EXPECT_EQ(table.apply(1, ~u64{0}), 1u);  // 2^64 - 1 = 0 (mod 3)
}

TEST(IterationTable, EmptyFunctionHasNoNodes) {
  IterationTable table(std::vector<u32>{}, 16);
  EXPECT_THROW(table.apply(0, 1), std::out_of_range);
  EXPECT_THROW(table.apply(0, 0), std::out_of_range);
}

TEST(IterationTable, PeriodicityOnCycles) {
  // On a pure k-cycle, f^k = identity.
  util::Rng rng(6013);
  const auto inst = util::equal_cycles(5, 12, 2, 2, rng);  // 5 cycles of length 12
  const auto cs = graph::cycle_structure(inst.f);
  IterationTable table(inst.f, 1 << 8);
  for (u32 x = 0; x < inst.size(); ++x) {
    EXPECT_EQ(table.apply(x, cs.length[x]), x);
  }
}

TEST(OrbitStats, CountsComponentsAndTails) {
  // Two 3-cycles plus a tail of length 2 into the first.
  //   0->1->2->0, 3->4->5->3, 6->7->0
  std::vector<u32> f{1, 2, 0, 4, 5, 3, 7, 0};
  const auto st = orbit_stats(f);
  EXPECT_EQ(st.num_cycles, 2u);
  EXPECT_EQ(st.cycle_nodes, 6u);
  EXPECT_EQ(st.max_cycle_len, 3u);
  EXPECT_EQ(st.max_tail, 2u);
  EXPECT_DOUBLE_EQ(st.mean_tail, 3.0 / 8.0);
}

TEST(OrbitStats, EmptyGraph) {
  const auto st = orbit_stats(std::vector<u32>{});
  EXPECT_EQ(st.num_cycles, 0u);
  EXPECT_EQ(st.cycle_nodes, 0u);
}

TEST(Orbits, TailEqualsTreeLevel) {
  // Independent witness for Section 4: a node's level in its rooted tree
  // equals its tail length (roots are the cycle nodes at level 0).
  util::Rng rng(6017);
  for (int iter = 0; iter < 10; ++iter) {
    const auto inst = util::random_function(400, 2, rng);
    const auto cs = graph::cycle_structure(inst.f);
    const auto orb = compute_orbits(inst.f, cs);
    graph::ForestContext lv;
    graph::build_forest_context_into(inst.f, cs.on_cycle, lv);
    for (std::size_t x = 0; x < inst.size(); ++x) {
      EXPECT_EQ(orb.tail[x], lv.level[x]) << "node " << x;
    }
  }
}

}  // namespace
}  // namespace sfcp
