#include "graph/orbits.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <stdexcept>

#include "pram/metrics.hpp"
#include "pram/parallel_for.hpp"

namespace sfcp::graph {

Orbits compute_orbits(std::span<const u32> f, const CycleStructure& cs) {
  const std::size_t n = f.size();
  Orbits out;
  out.tail.assign(n, 0);
  out.entry.assign(n, 0);
  out.cycle_id.assign(n, 0);
  out.cycle_len.assign(n, 0);
  if (n == 0) return out;

  // Pointer doubling over tree edges: cycle nodes are anchors (jump[x] = x),
  // tree nodes start with jump[x] = f(x) and accumulate the step count until
  // their pointer lands on a cycle node.
  std::vector<u32> jump(n), steps(n);
  pram::parallel_for(0, n, [&](std::size_t x) {
    if (cs.on_cycle[x]) {
      jump[x] = static_cast<u32>(x);
      steps[x] = 0;
    } else {
      jump[x] = f[x];
      steps[x] = 1;
    }
  });
  // After round j every tree node either reached a cycle node or doubled its
  // horizon to 2^j; at most ceil(log2 n) rounds.
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<u32> jump2(n), steps2(n);
    std::atomic<u32> any{0};
    pram::parallel_for(0, n, [&](std::size_t x) {
      const u32 j = jump[x];
      if (cs.on_cycle[j]) {
        jump2[x] = j;
        steps2[x] = steps[x];
      } else {
        jump2[x] = jump[j];
        steps2[x] = steps[x] + steps[j];
        any.store(1, std::memory_order_relaxed);
      }
    });
    jump.swap(jump2);
    steps.swap(steps2);
    changed = any.load(std::memory_order_relaxed) != 0;
  }

  pram::parallel_for(0, n, [&](std::size_t x) {
    out.tail[x] = steps[x];
    out.entry[x] = jump[x];
    out.cycle_id[x] = cs.cycle_of[jump[x]];
    out.cycle_len[x] = cs.length[jump[x]];
  });
  return out;
}

Orbits compute_orbits(std::span<const u32> f) {
  return compute_orbits(f, cycle_structure(f));
}

// Any k <= max_k has at most bit_width(max_k) bits, one level each.
IterationTable::IterationTable(std::span<const u32> f, u64 max_k) : max_k_(max_k) {
  const std::size_t n = f.size();
  const int num_levels = std::max(1, static_cast<int>(std::bit_width(max_k)));
  levels_.emplace_back(f.begin(), f.end());
  while (static_cast<int>(levels_.size()) < num_levels) {
    const auto& prev = levels_.back();
    std::vector<u32> next(n);
    pram::parallel_for(0, n, [&](std::size_t x) { next[x] = prev[prev[x]]; });
    levels_.push_back(std::move(next));
  }
}

u32 IterationTable::apply(u32 x, u64 k) const {
  if (k > max_k_) throw std::out_of_range("IterationTable::apply: k exceeds max_k");
  if (x >= levels_[0].size()) throw std::out_of_range("IterationTable::apply: x out of range");
  u32 cur = x;
  for (int j = 0; k != 0; ++j, k >>= 1) {
    if (k & 1) cur = levels_[static_cast<std::size_t>(j)][cur];
  }
  return cur;
}

OrbitStats orbit_stats(std::span<const u32> f) {
  OrbitStats st;
  const std::size_t n = f.size();
  if (n == 0) return st;
  const CycleStructure cs = cycle_structure(f);
  const Orbits orb = compute_orbits(f, cs);
  st.num_cycles = static_cast<u32>(cs.num_cycles());
  st.num_components = st.num_cycles;
  st.cycle_nodes = static_cast<u32>(cs.cycle_nodes.size());
  for (std::size_t c = 0; c < cs.num_cycles(); ++c) {
    st.max_cycle_len = std::max(st.max_cycle_len, cs.cycle_length(c));
  }
  u64 tail_sum = 0;
  for (std::size_t x = 0; x < n; ++x) {
    st.max_tail = std::max(st.max_tail, orb.tail[x]);
    tail_sum += orb.tail[x];
  }
  st.mean_tail = static_cast<double>(tail_sum) / static_cast<double>(n);
  pram::charge(2 * n);
  return st;
}

std::vector<u32> orbit_of(std::span<const u32> f, u32 x) {
  if (f.empty()) return {};
  const Orbits orb = compute_orbits(f);
  std::vector<u32> path;
  path.reserve(orb.rho(x));
  u32 cur = x;
  for (u32 t = 0; t < orb.tail[x]; ++t) {
    path.push_back(cur);
    cur = f[cur];
  }
  for (u32 t = 0; t < orb.cycle_len[x]; ++t) {
    path.push_back(cur);
    cur = f[cur];
  }
  pram::charge(path.size());
  return path;
}

}  // namespace sfcp::graph
