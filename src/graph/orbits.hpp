#pragma once
// Orbit analytics for functional graphs: per-node tail ("rho") lengths,
// eventual cycle membership, fast f^k(x) queries via binary lifting, and
// aggregate shape statistics.
//
// This extends the paper's pseudo-forest machinery (Sections 2, 4, 5) with
// the queries downstream applications keep asking of a single function:
// where does iteration from x land, after how many steps, and on which
// cycle?  The tail-length computation doubles as an independent witness for
// the tree-labelling levels of Section 4 (level(x) == tail_length(x)), which
// the tests exploit.

#include <span>
#include <vector>

#include "graph/cycle_structure.hpp"
#include "pram/types.hpp"

namespace sfcp::graph {

/// Per-node orbit data.  For x on a cycle: tail == 0, entry == x.
struct Orbits {
  std::vector<u32> tail;       ///< steps from x to the first cycle node
  std::vector<u32> entry;      ///< the first cycle node reached from x
  std::vector<u32> cycle_id;   ///< dense id of the cycle x eventually reaches
  std::vector<u32> cycle_len;  ///< its length

  std::size_t size() const { return tail.size(); }
  /// Rho length of x: tail + cycle, the orbit size of x under iteration.
  u32 rho(std::size_t x) const { return tail[x] + cycle_len[x]; }
};

/// Computes orbit data from a cycle structure: parallel pointer doubling on
/// tree edges, O(n log h) work where h is the deepest tail, O(log n) depth.
Orbits compute_orbits(std::span<const u32> f, const CycleStructure& cs);

/// Convenience overload that builds the cycle structure itself.
Orbits compute_orbits(std::span<const u32> f);

/// Binary-lifting table answering f^k(x) queries in O(log k) after
/// O(n log K) preprocessing, K = the largest supported exponent.
class IterationTable {
 public:
  /// Builds lift levels for exponents up to `max_k` (inclusive):
  /// max(1, bit_width(max_k)) of them, so at most 64.
  IterationTable(std::span<const u32> f, u64 max_k);

  /// f^k(x); throws std::out_of_range unless k <= max_k() and x < |f|.
  u32 apply(u32 x, u64 k) const;

  u64 max_k() const { return max_k_; }
  int num_levels() const { return static_cast<int>(levels_.size()); }

 private:
  std::vector<std::vector<u32>> levels_;  ///< levels_[j][x] = f^{2^j}(x)
  u64 max_k_ = 0;
};

/// Aggregate shape statistics of a functional graph.
struct OrbitStats {
  u32 num_cycles = 0;
  u32 cycle_nodes = 0;     ///< total nodes on cycles
  u32 max_cycle_len = 0;
  u32 max_tail = 0;        ///< deepest tree tail
  double mean_tail = 0.0;  ///< average tail length over all nodes
  u32 num_components = 0;  ///< == num_cycles (one cycle per pseudo-tree)
};

OrbitStats orbit_stats(std::span<const u32> f);

/// The orbit of x: x, f(x), f^2(x), ... until the cycle has been traversed
/// once (tail followed by one full cycle lap); O(rho(x)) sequential.
std::vector<u32> orbit_of(std::span<const u32> f, u32 x);

}  // namespace sfcp::graph
