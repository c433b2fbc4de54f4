#include "graph/cycle_detect.hpp"

#include <algorithm>
#include <bit>

#include "graph/functional_graph.hpp"
#include "pram/crcw.hpp"
#include "pram/parallel_for.hpp"

namespace sfcp::graph {

namespace {

void detect_sequential(std::span<const u32> f, std::vector<u8>& on_cycle) {
  const std::size_t n = f.size();
  on_cycle.assign(n, 0);
  std::vector<u8> color(n, 0);  // 0 unvisited, 1 on walk, 2 done
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
      std::size_t pos = path.size();
      while (pos > 0 && path[pos - 1] != v) --pos;
      for (std::size_t i = pos - 1; i < path.size(); ++i) on_cycle[path[i]] = 1;
    }
    for (const u32 x : path) color[x] = 2;
  }
  pram::charge(2 * n);
}

void detect_powers(std::span<const u32> f, std::vector<u8>& on_cycle) {
  const std::size_t n = f.size();
  on_cycle.assign(n, 0);
  if (n == 0) return;
  const std::vector<u32> fn = iterate_function(f, std::bit_ceil(static_cast<u64>(n)));
  pram::parallel_for(0, n, [&](std::size_t x) { pram::common_write(on_cycle[fn[x]], u8{1}); });
}

// Paper §5: a graph-cycle edge's two arcs lie in different Euler cycles
// and a tree edge's in the same one (euler_tour.hpp).  Both endpoints of a
// cycle edge are cycle nodes, and every cycle node has exactly one outgoing
// cycle edge, so x is a cycle node iff its arcs 2x and 2x+1 have different
// Euler-cycle leaders.  A permutation has every node on a cycle, and its
// partition stops at the preimage lists.
void detect_euler(std::span<const u32> f, std::vector<u8>& on_cycle, EulerPartition& arcs) {
  const std::size_t n = f.size();
  on_cycle.resize(n);
  if (!build_euler_partition_unless_permutation(f, arcs)) {
    std::fill(on_cycle.begin(), on_cycle.end(), u8{1});
    return;
  }
  pram::parallel_for(0, n, [&](std::size_t xi) {
    const u32 x = static_cast<u32>(xi);
    on_cycle[x] =
        arcs.leader[EulerPartition::up_arc(x)] != arcs.leader[EulerPartition::down_arc(x)];
  });
}

}  // namespace

std::vector<u8> find_cycle_nodes(std::span<const u32> f, CycleDetectStrategy strategy) {
  std::vector<u8> on_cycle;
  find_cycle_nodes_into(f, strategy, on_cycle);
  return on_cycle;
}

void find_cycle_nodes_into(std::span<const u32> f, CycleDetectStrategy strategy,
                           std::vector<u8>& on_cycle) {
  EulerPartition arcs;
  find_cycle_nodes_into(f, strategy, on_cycle, arcs);
}

void find_cycle_nodes_into(std::span<const u32> f, CycleDetectStrategy strategy,
                           std::vector<u8>& on_cycle, EulerPartition& arcs) {
  switch (strategy) {
    case CycleDetectStrategy::Sequential:
      return detect_sequential(f, on_cycle);
    case CycleDetectStrategy::FunctionPowers:
      return detect_powers(f, on_cycle);
    case CycleDetectStrategy::EulerTour:
      return detect_euler(f, on_cycle, arcs);
  }
  return detect_sequential(f, on_cycle);
}

}  // namespace sfcp::graph
