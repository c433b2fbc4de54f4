#pragma once
// Weakly connected components of a functional graph: each component is a
// pseudo-tree, identified canonically by its cycle's leader node.  Built on
// the cycle structure and the forest context's owning roots.  Only the
// tests call it.

#include <span>
#include <vector>

#include "graph/cycle_structure.hpp"
#include "graph/rooted_forest.hpp"
#include "pram/types.hpp"

namespace sfcp::graph {

struct Components {
  std::vector<u32> id;       ///< dense component id per node
  std::vector<u32> size;     ///< per component
  std::vector<u32> cycle_len;///< per component: length of its unique cycle

  std::size_t count() const { return size.size(); }
};

/// Computes components; strategies follow the underlying machinery.
Components connected_components(std::span<const u32> f,
                                ForestStrategy strategy = ForestStrategy::EulerTour);

}  // namespace sfcp::graph
