#include "graph/rooted_forest.hpp"

#include <algorithm>
#include <atomic>
#include <bit>

#include "pram/parallel_for.hpp"
#include "prim/compact.hpp"
#include "prim/scan.hpp"
#include "prof/profile.hpp"

namespace sfcp::graph {

void build_rooted_forest_into(std::span<const u32> f, std::span<const u8> on_cycle,
                              RootedForest& out) {
  const std::size_t n = f.size();
  out.parent = f;
  out.is_root = on_cycle;
  out.roots = prim::pack_index(on_cycle);
  // CSR by counting: each child's fetch_add on its parent's count is its
  // slot among the siblings, so after an exclusive scan turns counts into
  // first slots, every child is placed with a plain store.
  out.child_off.assign(n + 1, 0);
  out.sibling_index.resize(n);
  pram::parallel_for(0, n, [&](std::size_t x) {
    if (on_cycle[x]) {
      out.sibling_index[x] = 0;
      return;
    }
    std::atomic_ref<u32> count(out.child_off[f[x]]);
    out.sibling_index[x] = count.fetch_add(1, std::memory_order_relaxed);
  });
  out.child.resize(prim::exclusive_scan<u32>(out.child_off, out.child_off));
  pram::parallel_for(0, n, [&](std::size_t x) {
    if (!on_cycle[x]) out.child[out.child_off[f[x]] + out.sibling_index[x]] = static_cast<u32>(x);
  });
  // The atomics handed out slots in any order; ascending order makes the
  // forest (and so the Euler tour) the same whatever the scheduling.
  pram::parallel_for(0, n, [&](std::size_t p) {
    const auto first = out.child.begin() + out.child_off[p];
    const auto last = out.child.begin() + out.child_off[p + 1];
    std::sort(first, last);
    for (auto c = first; c != last; ++c) out.sibling_index[*c] = static_cast<u32>(c - first);
  });
}

namespace {

void levels_sequential(ForestContext& ctx) {
  const RootedForest& forest = ctx.forest;
  std::vector<u32>& stack = ctx.scratch;
  stack.clear();
  for (const u32 r : forest.roots) {
    ctx.level[r] = 0;
    ctx.root_of[r] = r;
    stack.push_back(r);
    while (!stack.empty()) {
      const u32 v = stack.back();
      stack.pop_back();
      for (u32 i = forest.child_off[v]; i < forest.child_off[v + 1]; ++i) {
        const u32 c = forest.child[i];
        ctx.level[c] = ctx.level[v] + 1;
        ctx.root_of[c] = r;
        stack.push_back(c);
      }
    }
  }
  pram::charge(forest.size());
}

void levels_euler(ForestContext& ctx) {
  const RootedForest& forest = ctx.forest;
  const EulerTour& tour = ctx.tour;
  std::vector<u32>& pre = ctx.scratch;
  pre.resize(tour.order.size());
  // +1 on a down-arc, -1 (mod 2^32) on an up-arc: the prefix sum at a
  // node's down-arc is its level.
  pram::parallel_for(0, pre.size(), [&](std::size_t p) {
    pre[p] = EulerTour::is_down(tour.order[p]) ? 1u : ~0u;
  });
  prim::inclusive_scan<u32>(pre, pre);
  pram::parallel_for(0, forest.size(), [&](std::size_t x) {
    ctx.level[x] =
        forest.is_root[x] ? 0 : pre[tour.pos[EulerTour::down_arc(static_cast<u32>(x))]];
  });
  // Owning root: the count of segment starts up to a node's down-arc is
  // one more than its tree's segment index.
  pram::parallel_for(0, pre.size(), [&](std::size_t p) { pre[p] = tour.seg_start[p]; });
  prim::inclusive_scan<u32>(pre, pre);
  pram::parallel_for(0, forest.size(), [&](std::size_t x) {
    const u32 down = EulerTour::down_arc(static_cast<u32>(x));
    ctx.root_of[x] =
        forest.is_root[x] ? static_cast<u32>(x) : tour.seg_root[pre[tour.pos[down]] - 1];
  });
}

void levels_doubling(ForestContext& ctx) {
  const RootedForest& forest = ctx.forest;
  const std::size_t n = forest.size();
  if (n == 0) return;
  std::vector<u32>& jump = ctx.root_of;
  std::vector<u32>& lvl = ctx.level;
  pram::parallel_for(0, n, [&](std::size_t x) {
    jump[x] = forest.is_root[x] ? static_cast<u32>(x) : forest.parent[x];
    lvl[x] = forest.is_root[x] ? 0 : 1;
  });
  std::vector<u32> jump2(n), lvl2(n);
  const int rounds = static_cast<int>(std::bit_width(static_cast<u64>(n - 1))) + 1;
  for (int r = 0; r < rounds; ++r) {
    pram::parallel_for(0, n, [&](std::size_t x) {
      lvl2[x] = lvl[x] + lvl[jump[x]];
      jump2[x] = jump[jump[x]];
    });
    lvl.swap(lvl2);
    jump.swap(jump2);
  }
}

void sums_sequential(ForestContext& ctx, std::span<const u32> vals, std::span<u32> out) {
  const RootedForest& forest = ctx.forest;
  std::vector<u32>& stack = ctx.scratch;
  stack.clear();
  for (const u32 r : forest.roots) {
    out[r] = vals[r];
    stack.push_back(r);
    while (!stack.empty()) {
      const u32 v = stack.back();
      stack.pop_back();
      for (u32 i = forest.child_off[v]; i < forest.child_off[v + 1]; ++i) {
        const u32 c = forest.child[i];
        out[c] = out[v] + vals[c];
        stack.push_back(c);
      }
    }
  }
  pram::charge(forest.size());
}

void sums_euler(ForestContext& ctx, std::span<const u32> vals, std::span<u32> out) {
  const RootedForest& forest = ctx.forest;
  const EulerTour& tour = ctx.tour;
  std::vector<u32>& pre = ctx.scratch;
  pre.resize(tour.order.size());
  pram::parallel_for(0, pre.size(), [&](std::size_t p) {
    const u32 arc = tour.order[p];
    const u32 v = vals[EulerTour::arc_node(arc)];
    pre[p] = EulerTour::is_down(arc) ? v : 0u - v;
  });
  prim::inclusive_scan<u32>(pre, pre);
  // The prefix at a down-arc covers the path root..x *excluding* the root
  // (roots have no arcs), so add the root's value.  Roots are written in
  // their own round, before tree nodes read them, so `out` may alias `vals`.
  pram::parallel_for(0, forest.roots.size(), [&](std::size_t i) {
    out[forest.roots[i]] = vals[forest.roots[i]];
  });
  pram::parallel_for(0, forest.size(), [&](std::size_t x) {
    if (forest.is_root[x]) return;
    out[x] = out[ctx.root_of[x]] + pre[tour.pos[EulerTour::down_arc(static_cast<u32>(x))]];
  });
}

void sums_doubling(const ForestContext& ctx, std::span<const u32> vals, std::span<u32> out) {
  const RootedForest& forest = ctx.forest;
  const std::size_t n = forest.size();
  if (n == 0) return;
  std::vector<u32> jump(n), jump2(n), acc(n), acc2(n);
  pram::parallel_for(0, n, [&](std::size_t x) {
    acc[x] = vals[x];
    jump[x] = forest.is_root[x] ? kNone : forest.parent[x];
  });
  const int rounds = static_cast<int>(std::bit_width(static_cast<u64>(n - 1))) + 1;
  for (int r = 0; r < rounds; ++r) {
    pram::parallel_for(0, n, [&](std::size_t x) {
      if (jump[x] != kNone) {
        acc2[x] = acc[x] + acc[jump[x]];
        jump2[x] = jump[jump[x]];
      } else {
        acc2[x] = acc[x];
        jump2[x] = kNone;
      }
    });
    acc.swap(acc2);
    jump.swap(jump2);
  }
  pram::parallel_for(0, n, [&](std::size_t x) { out[x] = acc[x]; });
}

}  // namespace

void build_forest_context_into(std::span<const u32> f, std::span<const u8> on_cycle,
                               ForestStrategy strategy, ForestContext& ctx) {
  ctx.strategy = strategy;
  {
    prof::Scope scope("forest");
    build_rooted_forest_into(f, on_cycle, ctx.forest);
  }
  ctx.level.resize(f.size());
  ctx.root_of.resize(f.size());
  if (strategy == ForestStrategy::EulerTour) {
    {
      prof::Scope scope("tour");
      build_euler_tour_into(ctx.forest, ctx.tour);
    }
    prof::Scope scope("levels");
    levels_euler(ctx);
    return;
  }
  ctx.tour = {};
  prof::Scope scope("levels");
  if (strategy == ForestStrategy::Sequential) {
    levels_sequential(ctx);
  } else {
    levels_doubling(ctx);
  }
}

void root_path_sums(ForestContext& ctx, std::span<const u32> vals, std::span<u32> out) {
  switch (ctx.strategy) {
    case ForestStrategy::Sequential:
      return sums_sequential(ctx, vals, out);
    case ForestStrategy::EulerTour:
      return sums_euler(ctx, vals, out);
    case ForestStrategy::AncestorDoubling:
      return sums_doubling(ctx, vals, out);
  }
}

}  // namespace sfcp::graph
