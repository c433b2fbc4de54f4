// Domain example: exploring the orbit structure of iterated maps.
//
// Iterating x -> f(x) on a finite set (pseudo-random generators, hash
// chains, dynamical systems mod n) produces a pseudo-forest of rho-shaped
// orbits.  This tool uses the library's cycle machinery to report the
// orbit statistics of x -> x^2 + c (mod n), and then uses SFCP to count
// behavioural equivalence classes when states are observed through a
// coarse lens (B = x mod k).
//
//   $ ./functional_graph_explorer [n] [c] [k]
#include <cstdlib>
#include <iostream>

#include "sfcp.hpp"

int main(int argc, char** argv) {
  using namespace sfcp;
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1 << 20;
  const u64 c = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;
  const u32 k = argc > 3 ? static_cast<u32>(std::strtoul(argv[3], nullptr, 10)) : 4;

  graph::Instance inst;
  inst.f.resize(n);
  inst.b.resize(n);
  for (std::size_t x = 0; x < n; ++x) {
    inst.f[x] = static_cast<u32>((x * x + c) % n);  // Pollard-rho style map
    inst.b[x] = static_cast<u32>(x % k);            // coarse observation
  }

  std::cout << "Map: x -> x^2 + " << c << " (mod " << n << ")\n";
  util::Timer timer;
  const auto cs = graph::cycle_structure(inst.f, graph::CycleStructureStrategy::PointerJumping);
  std::cout << "Orbit structure (" << timer.millis() << " ms):\n"
            << "  components (cycles): " << cs.num_cycles() << "\n"
            << "  nodes on cycles:     " << cs.cycle_nodes.size() << "\n";
  u32 longest = 0;
  for (std::size_t cyc = 0; cyc < cs.num_cycles(); ++cyc) {
    longest = std::max(longest, cs.cycle_length(cyc));
  }
  std::cout << "  longest cycle:       " << longest << "\n";

  // Tail depth distribution via the rooted forest.
  graph::ForestContext lv;
  graph::build_forest_context_into(inst.f, cs.on_cycle, lv);
  u32 max_level = 0;
  u64 level_sum = 0;
  for (u32 x = 0; x < n; ++x) {
    max_level = std::max(max_level, lv.level[x]);
    level_sum += lv.level[x];
  }
  std::cout << "  max tail depth:      " << max_level << "\n"
            << "  mean tail depth:     " << static_cast<double>(level_sum) / n << "\n";

  timer.reset();
  const auto r = core::solve(inst);
  std::cout << "\nBehavioural classes under B = x mod " << k << " (" << timer.millis()
            << " ms):\n  |Q| = " << r.num_blocks << "  (of " << n << " states; "
            << r.num_cycles << " cycles, " << r.kept_tree_nodes << " merged tree nodes, "
            << r.residual_tree_nodes << " residual)\n";
  return 0;
}
