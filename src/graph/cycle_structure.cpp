#include "graph/cycle_structure.hpp"

#include <algorithm>
#include <bit>

#include "graph/functional_graph.hpp"
#include "pram/crcw.hpp"
#include "pram/parallel_for.hpp"
#include "prim/compact.hpp"
#include "prim/list_ranking.hpp"
#include "prim/scan.hpp"

namespace sfcp::graph {

namespace {

// Canonical choice shared by all strategies: a cycle's leader is its
// minimum node id, and rank(x) counts steps from the leader along f.
void arrange(CycleStructure& cs) {
  const std::size_t n = cs.on_cycle.size();
  // Dense cycle ids in leader order.
  std::vector<u32> leaders = prim::pack_index_if(
      n, [&](std::size_t x) { return cs.on_cycle[x] && cs.leader[x] == static_cast<u32>(x); });
  const std::size_t k = leaders.size();
  std::vector<u32> dense_of_leader(n, kNone);
  pram::parallel_for(0, k, [&](std::size_t c) { dense_of_leader[leaders[c]] = static_cast<u32>(c); });
  cs.cycle_of.assign(n, kNone);
  pram::parallel_for(0, n, [&](std::size_t x) {
    if (cs.on_cycle[x]) cs.cycle_of[x] = dense_of_leader[cs.leader[x]];
  });
  std::vector<u32> lens(k);
  pram::parallel_for(0, k, [&](std::size_t c) { lens[c] = cs.length[leaders[c]]; });
  cs.cycle_offset.assign(k + 1, 0);
  const u32 total = prim::exclusive_scan<u32>(lens, std::span<u32>(cs.cycle_offset).first(k));
  cs.cycle_offset[k] = total;
  cs.cycle_nodes.assign(total, kNone);
  pram::parallel_for(0, n, [&](std::size_t x) {
    if (cs.on_cycle[x]) {
      cs.cycle_nodes[cs.cycle_offset[cs.cycle_of[x]] + cs.rank[x]] = static_cast<u32>(x);
    }
  });
}

void structure_sequential(std::span<const u32> f, CycleStructure& cs) {
  const std::size_t n = f.size();
  cs.on_cycle.assign(n, 0);
  cs.leader.assign(n, kNone);
  cs.rank.assign(n, kNone);
  cs.length.assign(n, kNone);
  // Colors: 0 = unvisited, 1 = on the current walk, 2 = finished.
  std::vector<u8> color(n, 0);
  std::vector<u32> path;
  for (u32 start = 0; start < n; ++start) {
    if (color[start] != 0) continue;
    path.clear();
    u32 v = start;
    while (color[v] == 0) {
      color[v] = 1;
      path.push_back(v);
      v = f[v];
    }
    if (color[v] == 1) {
      // Found a new cycle: it is the suffix of `path` starting at v.
      std::size_t pos = path.size();
      while (pos > 0 && path[pos - 1] != v) --pos;
      --pos;  // path[pos] == v
      const u32 len = static_cast<u32>(path.size() - pos);
      // Leader = min node id on the cycle.
      u32 lead = path[pos];
      for (std::size_t i = pos; i < path.size(); ++i) lead = std::min(lead, path[i]);
      std::size_t lead_at = pos;
      while (path[lead_at] != lead) ++lead_at;
      for (std::size_t i = pos; i < path.size(); ++i) {
        const u32 x = path[i];
        cs.on_cycle[x] = 1;
        cs.leader[x] = lead;
        cs.length[x] = len;
        cs.rank[x] = static_cast<u32>((i - pos + path.size() - lead_at) % len);
      }
    }
    for (const u32 x : path) color[x] = 2;
  }
  pram::charge(2 * n);
  arrange(cs);
}

// Flags from the caller or from the f^N image, then the orbits of f on the
// cycle nodes by ruling-set ranking: leader, rank and length directly.
void structure_ruling_set(std::span<const u32> f, std::span<const u8> known_flags,
                          CycleStructure& cs) {
  const std::size_t n = f.size();
  cs.leader.assign(n, kNone);
  cs.rank.assign(n, kNone);
  cs.length.assign(n, kNone);
  if (!known_flags.empty()) {
    cs.on_cycle.assign(known_flags.begin(), known_flags.end());
  } else {
    // Cycle nodes = image of f^N for any N >= n (every walk of length N
    // ends on a cycle, and cycle nodes map onto themselves).
    cs.on_cycle.assign(n, 0);
    if (n != 0) {
      const std::vector<u32> fn = iterate_function(f, std::bit_ceil(static_cast<u64>(n)));
      pram::parallel_for(0, n, [&](std::size_t x) {
        pram::common_write(cs.on_cycle[fn[x]], u8{1});
      });
    }
  }
  prim::rank_orbits(f, cs.on_cycle, cs.leader, cs.rank, cs.length);
  arrange(cs);
}

}  // namespace

CycleStructure cycle_structure(std::span<const u32> f, CycleStructureStrategy strategy) {
  CycleStructure cs;
  switch (strategy) {
    case CycleStructureStrategy::Sequential:
      structure_sequential(f, cs);
      return cs;
    case CycleStructureStrategy::PointerJumping:
      structure_ruling_set(f, {}, cs);
      return cs;
  }
  structure_sequential(f, cs);
  return cs;
}

CycleStructure cycle_structure_with_flags(std::span<const u32> f, std::span<const u8> on_cycle,
                                          CycleStructureStrategy strategy) {
  CycleStructure cs;
  cycle_structure_with_flags_into(f, on_cycle, strategy, cs);
  return cs;
}

void cycle_structure_with_flags_into(std::span<const u32> f, std::span<const u8> on_cycle,
                                     CycleStructureStrategy strategy, CycleStructure& cs) {
  if (strategy == CycleStructureStrategy::Sequential) {
    structure_sequential(f, cs);  // detects as a byproduct; flags agree
    return;
  }
  structure_ruling_set(f, on_cycle, cs);
}

}  // namespace sfcp::graph
