#include "graph/euler_tour.hpp"

#include <algorithm>
#include <atomic>

#include "pram/parallel_for.hpp"
#include "prim/list_ranking.hpp"
#include "prim/scan.hpp"

namespace sfcp::graph {

namespace {

using Arcs = EulerPartition;

// Preimage lists by a counting sort on f (paper: "the data structure ...
// can easily be done by using an integer sorting algorithm").  Counting
// hands every node a slot in its image's list, in whatever order the
// atomics ran, so each short list is then sorted and the slots renumbered:
// index[x] = position of x within pre[f(x)].  Placing through the counted
// slot, not a second fetch_add, keeps the placement's random stores out
// from behind locked instructions.
//
// A nonzero slot means a node with two preimages.  When there is none, f is
// a permutation: every list is the node's one preimage and every slot 0, so
// the lists are written directly, with no scan and no sort.  The flag is
// stored only while still clear, so its line stays shared.  Returns whether
// f is a permutation.
bool count_preimages(std::span<const u32> f, EulerPartition& arcs, std::span<u32> index) {
  const std::size_t n = f.size();
  arcs.pre_off.assign(n + 1, 0);
  std::atomic<bool> repeated{false};
  pram::parallel_for(0, n, [&](std::size_t x) {
    const u32 slot =
        std::atomic_ref<u32>(arcs.pre_off[f[x]]).fetch_add(1, std::memory_order_relaxed);
    index[x] = slot;
    if (slot != 0 && !repeated.load(std::memory_order_relaxed)) {
      repeated.store(true, std::memory_order_relaxed);
    }
  });
  arcs.pre.resize(n);
  if (!repeated.load(std::memory_order_relaxed)) {
    pram::parallel_for(0, n, [&](std::size_t x) {
      arcs.pre_off[x] = static_cast<u32>(x);
      arcs.pre[f[x]] = static_cast<u32>(x);
    });
    arcs.pre_off[n] = static_cast<u32>(n);
    return true;
  }
  prim::exclusive_scan<u32>(arcs.pre_off, arcs.pre_off);  // pre_off[n] = n
  pram::parallel_for(0, n, [&](std::size_t x) {
    arcs.pre[arcs.pre_off[f[x]] + index[x]] = static_cast<u32>(x);
  });
  pram::parallel_for(0, n, [&](std::size_t v) {
    const auto first = arcs.pre.begin() + arcs.pre_off[v];
    const auto last = arcs.pre.begin() + arcs.pre_off[v + 1];
    std::sort(first, last);
    for (auto x = first; x != last; ++x) index[*x] = static_cast<u32>(x - first);
  });
  return false;
}

// Preimages, then successors and orbits unless `stop_at_permutation` and f
// is a permutation.  Returns whether the successors were built.
bool build_partition(std::span<const u32> f, EulerPartition& arcs, bool stop_at_permutation) {
  const std::size_t n = f.size();
  arcs.ranked = false;
  // `leader` is written last, by the ranking, so it holds the slot indices
  // until then.
  arcs.leader.resize(2 * n);
  const std::span<u32> index(arcs.leader.data(), n);
  const bool permutation = count_preimages(f, arcs, index);
  if (permutation && stop_at_permutation) {
    arcs.succ.clear();
    arcs.leader.clear();
    return false;
  }
  // Successors (paper §5): after arc 2x into v = f(x) comes the buddy of
  // x's next sibling, or 2v after the last; after the buddy 2x+1 into x
  // comes the buddy of x's first preimage, or 2x when x has none.
  arcs.succ.resize(2 * n);
  pram::parallel_for(0, n, [&](std::size_t xi) {
    const u32 x = static_cast<u32>(xi);
    const u32 v = f[x];
    const u32 next = arcs.pre_off[v] + index[x] + 1;
    arcs.succ[Arcs::up_arc(x)] =
        next < arcs.pre_off[v + 1] ? Arcs::down_arc(arcs.pre[next]) : Arcs::up_arc(v);
    arcs.succ[Arcs::down_arc(x)] = arcs.pre_off[x + 1] > arcs.pre_off[x]
                                       ? Arcs::down_arc(arcs.pre[arcs.pre_off[x]])
                                       : Arcs::up_arc(x);
  });
  arcs.ranked = !permutation;
  if (arcs.ranked) arcs.pos.resize(2 * n);
  prim::rank_orbits(arcs.succ, {}, arcs.leader, arcs.ranked ? arcs.pos : std::span<u32>{}, {});
  return true;
}

}  // namespace

u32 EulerPartition::pred(std::span<const u32> f, u32 arc) const {
  const u32 x = arc / 2;
  if (arc == up_arc(x)) {  // x's first out-arc follows the buddy of its last
    return pre_off[x + 1] > pre_off[x] ? up_arc(pre[pre_off[x + 1] - 1]) : down_arc(x);
  }
  const std::span<const u32> sib = preimages(f[x]);
  const auto at = std::lower_bound(sib.begin(), sib.end(), x);
  return at == sib.begin() ? down_arc(f[x]) : up_arc(*(at - 1));
}

void build_preimages_into(std::span<const u32> f, EulerPartition& arcs) {
  arcs.ranked = false;
  arcs.leader.resize(f.size());  // lends its storage to the slot indices
  count_preimages(f, arcs, arcs.leader);
}

void build_euler_partition_into(std::span<const u32> f, EulerPartition& arcs) {
  build_partition(f, arcs, false);
}

bool build_euler_partition_unless_permutation(std::span<const u32> f, EulerPartition& arcs) {
  return build_partition(f, arcs, true);
}

}  // namespace sfcp::graph
