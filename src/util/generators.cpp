#include "util/generators.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "prim/list_ranking.hpp"
#include "prim/rename.hpp"
#include "strings/period.hpp"

namespace sfcp::util {

graph::Instance paper_example_2_2() {
  // Paper (1-based): A_f = [2,4,6,8,10,12,1,3,5,7,9,11,14,15,16,13]
  //                  A_B = [1,2,1,1,2,2,3,3,1,1,3,1,1,2,1,3]
  graph::Instance inst;
  const u32 f1[] = {2, 4, 6, 8, 10, 12, 1, 3, 5, 7, 9, 11, 14, 15, 16, 13};
  const u32 b1[] = {1, 2, 1, 1, 2, 2, 3, 3, 1, 1, 3, 1, 1, 2, 1, 3};
  for (const u32 v : f1) inst.f.push_back(v - 1);
  for (const u32 v : b1) inst.b.push_back(v);
  return inst;
}

std::vector<u32> paper_example_2_2_expected_q() {
  // Paper: A_Q[1..16] = [1,2,1,3,2,2,4,4,1,3,4,3,1,2,3,4].
  const u32 q1[] = {1, 2, 1, 3, 2, 2, 4, 4, 1, 3, 4, 3, 1, 2, 3, 4};
  std::vector<u32> q(std::begin(q1), std::end(q1));
  return prim::canonicalize_labels(q).labels;
}

graph::Instance random_function(std::size_t n, u32 num_b_labels, Rng& rng) {
  graph::Instance inst;
  inst.f.resize(n);
  inst.b.resize(n);
  for (std::size_t x = 0; x < n; ++x) {
    inst.f[x] = rng.below_u32(static_cast<u32>(n));
    inst.b[x] = rng.below_u32(num_b_labels);
  }
  return inst;
}

graph::Instance random_permutation(std::size_t n, u32 num_b_labels, Rng& rng) {
  graph::Instance inst;
  inst.f.resize(n);
  inst.b.resize(n);
  std::vector<u32> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  // Fisher-Yates, then close random-length segments into cycles.
  for (std::size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.below(i)]);
  }
  std::size_t pos = 0;
  while (pos < n) {
    const std::size_t remaining = n - pos;
    const std::size_t len = 1 + rng.below(std::min<std::size_t>(remaining, 1 + remaining / 2));
    for (std::size_t i = 0; i < len; ++i) {
      inst.f[perm[pos + i]] = perm[pos + (i + 1) % len];
    }
    pos += len;
  }
  for (std::size_t x = 0; x < n; ++x) inst.b[x] = rng.below_u32(num_b_labels);
  return inst;
}

graph::Instance splitter_free_cycle(std::size_t n, u32 num_b_labels, Rng& rng) {
  graph::Instance inst;
  inst.f.resize(n);
  inst.b.resize(n);
  std::vector<u32> cycle;
  for (u32 x = 0; x < n; ++x) {
    inst.f[x] = x;
    const u64 arc = 2 * static_cast<u64>(x);
    if (!prim::is_ruling_splitter(x) && !prim::is_ruling_splitter(arc) &&
        !prim::is_ruling_splitter(arc + 1)) {
      cycle.push_back(x);
    }
  }
  for (std::size_t i = cycle.size(); i > 1; --i) std::swap(cycle[i - 1], cycle[rng.below(i)]);
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    inst.f[cycle[i]] = cycle[(i + 1) % cycle.size()];
  }
  for (std::size_t x = 0; x < n; ++x) inst.b[x] = rng.below_u32(num_b_labels);
  return inst;
}

graph::Instance equal_cycles(std::size_t k, std::size_t len, u32 distinct_patterns,
                             u32 num_b_labels, Rng& rng) {
  assert(len > 0 && distinct_patterns > 0);
  graph::Instance inst;
  const std::size_t n = k * len;
  inst.f.resize(n);
  inst.b.resize(n);
  std::vector<std::vector<u32>> patterns(distinct_patterns);
  for (auto& p : patterns) {
    p.resize(len);
    for (auto& c : p) c = rng.below_u32(num_b_labels);
  }
  for (std::size_t c = 0; c < k; ++c) {
    const std::size_t base = c * len;
    const auto& pat = patterns[rng.below(distinct_patterns)];
    const std::size_t rot = rng.below(len);  // random rotation: exercises m.s.p.
    for (std::size_t i = 0; i < len; ++i) {
      inst.f[base + i] = static_cast<u32>(base + (i + 1) % len);
      inst.b[base + i] = pat[(i + rot) % len];
    }
  }
  return inst;
}

graph::Instance long_tail(std::size_t n, std::size_t cycle_len, u32 num_b_labels, Rng& rng) {
  assert(cycle_len >= 1 && cycle_len <= n);
  graph::Instance inst;
  inst.f.resize(n);
  inst.b.resize(n);
  for (std::size_t i = 0; i < cycle_len; ++i) {
    inst.f[i] = static_cast<u32>((i + 1) % cycle_len);
  }
  // Path n-1 -> n-2 -> ... -> cycle_len -> 0 (enters the cycle at node 0).
  for (std::size_t i = cycle_len; i < n; ++i) {
    inst.f[i] = static_cast<u32>(i == cycle_len ? 0 : i - 1);
  }
  for (std::size_t x = 0; x < n; ++x) inst.b[x] = rng.below_u32(num_b_labels);
  return inst;
}

graph::Instance bushy(std::size_t n, std::size_t cycle_len, u32 fanout, u32 num_b_labels,
                      Rng& rng) {
  assert(cycle_len >= 1 && cycle_len <= n && fanout >= 1);
  graph::Instance inst;
  inst.f.resize(n);
  inst.b.resize(n);
  for (std::size_t i = 0; i < cycle_len; ++i) {
    inst.f[i] = static_cast<u32>((i + 1) % cycle_len);
  }
  // Node i attaches to a random earlier node within `fanout` generations.
  for (std::size_t i = cycle_len; i < n; ++i) {
    const std::size_t lo = i >= static_cast<std::size_t>(fanout) * 4 ? i - fanout * 4 : 0;
    inst.f[i] = static_cast<u32>(lo + rng.below(std::max<std::size_t>(1, i - lo)));
  }
  for (std::size_t x = 0; x < n; ++x) inst.b[x] = rng.below_u32(num_b_labels);
  return inst;
}

graph::Instance mergeable(std::size_t n, u32 period, Rng& rng) {
  // One big cycle whose B-labels repeat with the given period, plus trees
  // whose labels copy the cycle labels -> most tree nodes keep cycle
  // labels (exercises steps 2-4 of tree labelling).
  assert(period >= 1);
  graph::Instance inst;
  inst.f.resize(n);
  inst.b.resize(n);
  const std::size_t cycle_len = std::max<std::size_t>(period, (n / 2) / period * period);
  std::vector<u32> pattern(period);
  for (auto& c : pattern) c = rng.below_u32(4);
  for (std::size_t i = 0; i < cycle_len; ++i) {
    inst.f[i] = static_cast<u32>((i + 1) % cycle_len);
    inst.b[i] = pattern[i % period];
  }
  for (std::size_t i = cycle_len; i < n; ++i) {
    const u32 target = rng.below_u32(static_cast<u32>(i));
    inst.f[i] = target;
    // Copy the label the "corresponding cycle node" would demand with high
    // probability, random otherwise.
    inst.b[i] = rng.chance(0.8) ? inst.b[target] : rng.below_u32(4);
  }
  return inst;
}

std::vector<u32> paper_example_3_4() {
  return {3, 2, 1, 3, 2, 3, 4, 3, 1, 2, 3, 4, 2, 1, 1, 1, 3, 2, 2};
}

std::vector<u32> random_string(std::size_t n, u32 sigma, Rng& rng) {
  std::vector<u32> s(n);
  for (auto& c : s) c = 1 + rng.below_u32(sigma);
  return s;
}

std::vector<u32> random_primitive_string(std::size_t n, u32 sigma, Rng& rng) {
  for (;;) {
    std::vector<u32> s = random_string(n, sigma, rng);
    if (!strings::is_repeating(s)) return s;
  }
}

std::vector<u32> runs_string(std::size_t n, u32 sigma, std::size_t run_len, Rng& rng) {
  std::vector<u32> s(n);
  std::size_t i = 0;
  while (i < n) {
    const u32 sym = 1 + rng.below_u32(sigma);
    const std::size_t len = 1 + rng.below(run_len);
    for (std::size_t j = 0; j < len && i < n; ++j) s[i++] = sym;
  }
  return s;
}

std::vector<u32> periodic_string(std::size_t n, std::size_t p, u32 sigma, Rng& rng) {
  assert(p > 0 && n % p == 0);
  std::vector<u32> pat = random_string(p, sigma, rng);
  std::vector<u32> s(n);
  for (std::size_t i = 0; i < n; ++i) s[i] = pat[i % p];
  return s;
}

strings::StringList random_string_list(std::size_t m, std::size_t total_symbols, u32 sigma,
                                       LengthDistribution dist, Rng& rng) {
  std::vector<std::size_t> lens(m, 1);
  std::size_t used = m;
  switch (dist) {
    case LengthDistribution::Uniform: {
      while (used < total_symbols) {
        ++lens[rng.below(m)];
        ++used;
      }
      break;
    }
    case LengthDistribution::ManyShort: {
      // 90% of strings stay short; the rest absorb the budget.
      const std::size_t heavy = std::max<std::size_t>(1, m / 10);
      while (used < total_symbols) {
        ++lens[rng.below(heavy)];
        ++used;
      }
      break;
    }
    case LengthDistribution::FewLong: {
      const std::size_t giant = std::max<std::size_t>(1, m / 100);
      while (used < total_symbols) {
        ++lens[rng.below(giant)];
        ++used;
      }
      break;
    }
    case LengthDistribution::PowerOfTwo: {
      for (std::size_t i = 0; i < m && used < total_symbols; ++i) {
        std::size_t len = 1;
        while (rng.chance(0.5) && used + len < total_symbols) len *= 2;
        lens[i] += len - 1;
        used += len - 1;
      }
      break;
    }
  }
  strings::StringList list;
  list.offsets.push_back(0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < lens[i]; ++j) {
      list.data.push_back(1 + rng.below_u32(sigma));
    }
    list.offsets.push_back(static_cast<u32>(list.data.size()));
  }
  return list;
}

std::vector<inc::Edit> random_edit_stream(const graph::Instance& inst, std::size_t count,
                                          EditMix mix, u32 num_b_labels, Rng& rng) {
  std::vector<inc::Edit> edits;
  const std::size_t n = inst.size();
  if (n == 0 || count == 0) return edits;
  edits.reserve(count);
  const u32 un = static_cast<u32>(n);
  if (num_b_labels == 0) num_b_labels = 1;
  // The stream is generated against an evolving copy of f so that later
  // edits remain shaped like the mix after earlier ones restructure the
  // graph.
  std::vector<u32> f = inst.f;
  switch (mix) {
    case EditMix::Uniform: {
      for (std::size_t i = 0; i < count; ++i) {
        const u32 x = rng.below_u32(un);
        if (rng.chance(0.5)) {
          const u32 y = rng.below_u32(un);
          edits.push_back(inc::Edit::set_f(x, y));
          f[x] = y;
        } else {
          edits.push_back(inc::Edit::set_b(x, rng.below_u32(num_b_labels)));
        }
      }
      break;
    }
    case EditMix::LocalizedHotspot: {
      // Leaves (in-degree 0) have singleton dirty regions.  Retargeting a
      // leaf to an f-image (in-degree >= 1) keeps the leaf set stable, so
      // the whole stream stays maximally local.
      const std::vector<u32> indeg = graph::indegrees(f);
      std::vector<u32> leaves;
      for (u32 x = 0; x < un; ++x) {
        if (indeg[x] == 0) leaves.push_back(x);
      }
      if (leaves.empty()) {
        // No leaves (e.g. a permutation): fall back to a small hotspot pool.
        for (int i = 0; i < 8; ++i) leaves.push_back(rng.below_u32(un));
      }
      const u32 num_leaves = static_cast<u32>(leaves.size());
      for (std::size_t i = 0; i < count; ++i) {
        const u32 x = leaves[rng.below_u32(num_leaves)];
        if (rng.chance(0.8)) {
          edits.push_back(inc::Edit::set_b(x, rng.below_u32(num_b_labels)));
        } else {
          const u32 y = f[rng.below_u32(un)];
          edits.push_back(inc::Edit::set_f(x, y));
          f[x] = y;
        }
      }
      break;
    }
    case EditMix::CycleChurn: {
      // Walk a random node forward far enough to land on (or right next to)
      // a cycle, then splice it onto another such node: cycles merge, split
      // and change length, and whole components go dirty.  Random functional
      // graphs have expected tail length ~0.63*sqrt(n), so the walk budget
      // scales with sqrt(n) to actually reach the cycles it churns.
      std::size_t walk_budget = 64;
      while (walk_budget * walk_budget < 16 * n) ++walk_budget;
      auto near_cycle = [&](u32 start) {
        u32 z = start;
        for (std::size_t s = 0; s < walk_budget; ++s) z = f[z];
        return z;
      };
      for (std::size_t i = 0; i < count; ++i) {
        if (rng.chance(0.25)) {
          const u32 x = near_cycle(rng.below_u32(un));
          edits.push_back(inc::Edit::set_b(x, rng.below_u32(num_b_labels)));
        } else {
          const u32 x = near_cycle(rng.below_u32(un));
          const u32 y = near_cycle(rng.below_u32(un));
          edits.push_back(inc::Edit::set_f(x, y));
          f[x] = y;
        }
      }
      break;
    }
  }
  return edits;
}

}  // namespace sfcp::util
