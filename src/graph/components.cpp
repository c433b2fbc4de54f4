#include "graph/components.hpp"

#include <atomic>

#include "pram/parallel_for.hpp"

namespace sfcp::graph {

Components connected_components(std::span<const u32> f, ForestStrategy strategy) {
  const std::size_t n = f.size();
  Components out;
  out.id.assign(n, kNone);
  if (n == 0) return out;
  const CycleStructure cs = cycle_structure(f, CycleStructureStrategy::PointerJumping);
  ForestContext fc;
  build_forest_context_into(f, cs, strategy, false, fc);
  // Component id = dense cycle id of the owning root's cycle.
  pram::parallel_for(0, n, [&](std::size_t x) { out.id[x] = cs.cycle_of[fc.root_of[x]]; });
  const std::size_t k = cs.num_cycles();
  std::vector<std::atomic<u32>> sizes(k);
  pram::parallel_for(0, k, [&](std::size_t c) { sizes[c].store(0, std::memory_order_relaxed); });
  pram::parallel_for(0, n, [&](std::size_t x) {
    sizes[out.id[x]].fetch_add(1, std::memory_order_relaxed);
  });
  out.size.resize(k);
  out.cycle_len.resize(k);
  pram::parallel_for(0, k, [&](std::size_t c) {
    out.size[c] = sizes[c].load(std::memory_order_relaxed);
    out.cycle_len[c] = cs.cycle_length(c);
  });
  return out;
}

}  // namespace sfcp::graph
