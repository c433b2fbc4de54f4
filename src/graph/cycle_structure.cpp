#include "graph/cycle_structure.hpp"

#include <cassert>

#include "graph/cycle_detect.hpp"
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

// Walks each cycle once from its leader, the first flagged node in id
// order that no earlier walk reached, so cycles come in leader order and
// each is laid out by rank as it is walked.
void structure_sequential(std::span<const u32> f, CycleStructure& cs) {
  const std::size_t n = f.size();
  cs.leader.assign(n, kNone);
  cs.rank.assign(n, kNone);
  cs.length.assign(n, kNone);
  cs.cycle_of.assign(n, kNone);
  cs.cycle_nodes.clear();
  cs.cycle_offset.assign(1, 0);
  for (u32 lead = 0; lead < n; ++lead) {
    if (!cs.on_cycle[lead] || cs.leader[lead] != kNone) continue;
    const u32 c = static_cast<u32>(cs.num_cycles());
    const u32 begin = cs.cycle_offset[c];
    u32 v = lead;
    do {
      assert(cs.on_cycle[v] && cs.leader[v] == kNone);
      cs.leader[v] = lead;
      cs.rank[v] = static_cast<u32>(cs.cycle_nodes.size()) - begin;
      cs.cycle_of[v] = c;
      cs.cycle_nodes.push_back(v);
      v = f[v];
    } while (v != lead);
    const u32 end = static_cast<u32>(cs.cycle_nodes.size());
    cs.cycle_offset.push_back(end);
    for (u32 i = begin; i < end; ++i) cs.length[cs.cycle_nodes[i]] = end - begin;
  }
  pram::charge(n);
}

// The orbits of f on the flagged nodes by ruling-set ranking: leader, rank
// and length directly.
void structure_ruling_set(std::span<const u32> f, CycleStructure& cs) {
  const std::size_t n = f.size();
  cs.leader.assign(n, kNone);
  cs.rank.assign(n, kNone);
  cs.length.assign(n, kNone);
  prim::rank_orbits(f, cs.on_cycle, cs.leader, cs.rank, cs.length);
  arrange(cs);
}

}  // namespace

CycleStructure cycle_structure(std::span<const u32> f, CycleStructureStrategy strategy) {
  const std::vector<u8> on_cycle =
      find_cycle_nodes(f, strategy == CycleStructureStrategy::Sequential
                              ? CycleDetectStrategy::Sequential
                              : CycleDetectStrategy::FunctionPowers);
  return cycle_structure_with_flags(f, on_cycle, strategy);
}

CycleStructure cycle_structure_with_flags(std::span<const u32> f, std::span<const u8> on_cycle,
                                          CycleStructureStrategy strategy) {
  CycleStructure cs;
  cycle_structure_with_flags_into(f, on_cycle, strategy, cs);
  return cs;
}

void cycle_structure_with_flags_into(std::span<const u32> f, std::span<const u8> on_cycle,
                                     CycleStructureStrategy strategy, CycleStructure& cs) {
  cs.on_cycle.assign(on_cycle.begin(), on_cycle.end());
  if (strategy == CycleStructureStrategy::Sequential) return structure_sequential(f, cs);
  structure_ruling_set(f, cs);
}

}  // namespace sfcp::graph
