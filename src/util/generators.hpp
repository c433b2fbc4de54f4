#pragma once
// Instance and workload generators for tests, examples and the benchmark
// harness, including the paper's worked examples (2.2, 3.1, 3.4, Fig. 1).

#include <vector>

#include "graph/functional_graph.hpp"
#include "inc/edit.hpp"
#include "pram/types.hpp"
#include "strings/string_sort.hpp"
#include "util/random.hpp"

namespace sfcp::util {

// ---- SFCP instances ------------------------------------------------------

/// The instance of Example 2.2 / Fig. 1 (converted to 0-based indices):
/// 16 nodes forming two cycles of lengths 12 and 4.
graph::Instance paper_example_2_2();

/// Expected Q-labels for paper_example_2_2 (canonicalized; the paper's
/// A_Q[1..16] = [1,2,1,3,2,2,4,4,1,3,4,3,1,2,3,4] zero-based and renamed
/// to first-occurrence order).
std::vector<u32> paper_example_2_2_expected_q();

/// Uniformly random function, B-labels uniform over `num_b_labels`.
graph::Instance random_function(std::size_t n, u32 num_b_labels, Rng& rng);

/// A permutation (pure cycles): cycle lengths drawn until n is exhausted;
/// B-labels periodic with the given pattern length plus optional noise.
graph::Instance random_permutation(std::size_t n, u32 num_b_labels, Rng& rng);

/// k cycles of identical length len (n = k*len) with B-label strings chosen
/// from `distinct_patterns` random patterns — exercises Algorithm partition
/// with controlled equivalence-class counts.
graph::Instance equal_cycles(std::size_t k, std::size_t len, u32 distinct_patterns,
                             u32 num_b_labels, Rng& rng);

/// One cycle of length `cycle_len` with a single path of length
/// n - cycle_len attached (adversarially deep trees).
graph::Instance long_tail(std::size_t n, std::size_t cycle_len, u32 num_b_labels, Rng& rng);

/// One small cycle with shallow, bushy trees (caterpillar/star mixture).
graph::Instance bushy(std::size_t n, std::size_t cycle_len, u32 fanout, u32 num_b_labels,
                      Rng& rng);

/// B-labels copied from f-orbit structure so that large Q-blocks survive
/// (high-coarseness instances where most nodes merge).
graph::Instance mergeable(std::size_t n, u32 period, Rng& rng);

/// The ruling-set ranker's adversary: the nodes x for which neither x nor
/// the Euler arcs 2x, 2x+1 are sampled (prim::is_ruling_splitter) form one
/// cycle in random order, and every other node is a self-loop.  No splitter
/// lands on the long cycle in cycle structure or in the §5 detector, so
/// both run prim::rank_orbits' splitter-free path.
graph::Instance splitter_free_cycle(std::size_t n, u32 num_b_labels, Rng& rng);

// ---- edit streams --------------------------------------------------------

/// Shape of an edit workload against a live instance (inc::IncrementalSolver).
enum class EditMix {
  /// Edits confined to in-degree-0 leaves: dirty regions of size 1, the
  /// incremental engine's best case (steady-state serving traffic).
  LocalizedHotspot,
  /// Uniformly random set_f / set_b over all nodes.
  Uniform,
  /// Adversarial cycle merge/split churn: retargets nodes at or near cycles
  /// so whole components go dirty, forcing the full-recompute path.
  CycleChurn,
};

/// A reproducible edit stream of `count` edits against (an evolving copy of)
/// `inst`; set_b values are drawn below `num_b_labels`, set_f targets are
/// valid node indices.  The stream is meaningful when applied in order
/// starting from `inst`.
std::vector<inc::Edit> random_edit_stream(const graph::Instance& inst, std::size_t count,
                                          EditMix mix, u32 num_b_labels, Rng& rng);

// ---- circular strings ----------------------------------------------------

/// Example 3.4's circular string (3,2,1,3,2,3,4,3,1,2,3,4,2,1,1,1,3,2,2).
std::vector<u32> paper_example_3_4();

/// Random circular string over alphabet of size `sigma`.
std::vector<u32> random_string(std::size_t n, u32 sigma, Rng& rng);

/// Random NON-repeating circular string (resamples until primitive).
std::vector<u32> random_primitive_string(std::size_t n, u32 sigma, Rng& rng);

/// Adversarial m.s.p. inputs: long runs of the minimum symbol.
std::vector<u32> runs_string(std::size_t n, u32 sigma, std::size_t run_len, Rng& rng);

/// Periodic string: pattern of length p repeated to length n (p | n).
std::vector<u32> periodic_string(std::size_t n, std::size_t p, u32 sigma, Rng& rng);

// ---- string lists ---------------------------------------------------------

enum class LengthDistribution { Uniform, ManyShort, FewLong, PowerOfTwo };

/// m strings with total length ~ total_symbols over alphabet sigma.
strings::StringList random_string_list(std::size_t m, std::size_t total_symbols, u32 sigma,
                                       LengthDistribution dist, Rng& rng);

}  // namespace sfcp::util
