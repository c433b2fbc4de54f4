#include "graph/rooted_forest.hpp"

#include "pram/parallel_for.hpp"
#include "prim/scan.hpp"
#include "prof/profile.hpp"

namespace sfcp::graph {

namespace {

using Arcs = EulerPartition;

// Rotates every Euler cycle to start at its anchor (2c0 or 2c0+1, c0 the
// leader of its cycle c) and rewrites each arc's rank in place as its tour
// position: Euler cycle e = 2c + dir starts at the sum of the lengths
// before it.  Each orbit leader's `succ` slot, dead since the ranking,
// names its Euler cycle.
void lay_out_tour(const CycleStructure& cs, ForestContext& ctx) {
  Arcs& arcs = ctx.arcs;
  const std::size_t cycles = 2 * cs.num_cycles();
  ctx.scratch.resize(3 * cycles);
  const std::span<u32> start(ctx.scratch.data(), cycles);
  const std::span<u32> anchor(ctx.scratch.data() + cycles, cycles);
  const std::span<u32> length(ctx.scratch.data() + 2 * cycles, cycles);
  pram::parallel_for(0, cycles, [&](std::size_t e) {
    const u32 a = 2 * cs.node_at(e / 2, 0) + static_cast<u32>(e % 2);
    const u32 lead = arcs.leader[a];
    anchor[e] = arcs.pos[a];
    length[e] = arcs.pos[arcs.pred(ctx.parent, lead)] + 1;
    arcs.succ[lead] = static_cast<u32>(e);
  });
  prim::exclusive_scan<u32>(length, start);
  pram::parallel_for(0, arcs.pos.size(), [&](std::size_t a) {
    const u32 e = arcs.succ[arcs.leader[a]];
    const u32 r = arcs.pos[a];
    arcs.pos[a] = start[e] + (r >= anchor[e] ? r - anchor[e] : r + length[e] - anchor[e]);
  });
}

// Levels and owning roots from two prefix sums over the tour, in the
// storage of the partition's leader and succ arrays, dead since the
// layout.  A cycle arc weighs 0 toward levels and its head minus the
// previous cycle arc's head toward roots, so at a tree node's down-arc the
// sums are its depth in the current run and the head the run hangs from.
// In tour order the cycle arcs of cycle c run 2c_0, 2c_1, ..., 2c_{k-1}
// (heads f(c_r)), then 2c_0+1, 2c_{k-1}+1, ..., 2c_1+1 (heads c_r), so the
// previous head is c_r for 2c_r and f(c_r) for 2c_r+1; before the leader's
// two arcs it is f of the previous cycle's leader, and c_0 itself.
void levels_euler(const CycleStructure& cs, ForestContext& ctx) {
  Arcs& arcs = ctx.arcs;
  const std::span<u32> depth = arcs.leader;
  const std::span<u32> head = arcs.succ;
  pram::parallel_for(0, ctx.size(), [&](std::size_t xi) {
    const u32 x = static_cast<u32>(xi);
    const u32 up = arcs.pos[Arcs::up_arc(x)];
    const u32 down = arcs.pos[Arcs::down_arc(x)];
    if (!ctx.is_root[x]) {
      depth[down] = 1;
      depth[up] = ~0u;
      head[down] = head[up] = 0;
      return;
    }
    depth[down] = depth[up] = 0;
    const u32 fx = ctx.parent[x];
    if (cs.rank[x] != 0) {
      head[up] = fx - x;
      head[down] = x - fx;
      return;
    }
    const u32 c = cs.cycle_of[x];
    head[up] = fx - (c == 0 ? 0 : ctx.parent[cs.node_at(c - 1, 0)]);
    head[down] = 0;
  });
  prim::inclusive_scan<u32>(depth, depth);
  prim::inclusive_scan<u32>(head, head);
  pram::parallel_for(0, ctx.size(), [&](std::size_t x) {
    const u32 down = arcs.pos[Arcs::down_arc(static_cast<u32>(x))];
    ctx.level[x] = ctx.is_root[x] ? 0 : depth[down];
    ctx.root_of[x] = ctx.is_root[x] ? static_cast<u32>(x) : head[down];
  });
}

}  // namespace

void build_forest_context_into(std::span<const u32> f, std::span<const u8> on_cycle,
                               ForestContext& ctx) {
  const CycleStructure cs =
      cycle_structure_with_flags(f, on_cycle, CycleStructureStrategy::PointerJumping);
  build_forest_context_into(f, cs, false, ctx);
  ctx.is_root = on_cycle;  // the same flags, in storage that outlives cs
}

void build_forest_context_into(std::span<const u32> f, const CycleStructure& cs, bool arcs_built,
                               ForestContext& ctx) {
  const std::size_t n = f.size();
  ctx.parent = f;
  ctx.is_root = cs.on_cycle;
  ctx.level.resize(n);
  ctx.root_of.resize(n);
  if (!arcs_built) {
    prof::Scope scope("partition");
    build_euler_partition_unless_permutation(f, ctx.arcs);
  }
  // A permutation: every node is a root, and succ and leader may be empty.
  if (!ctx.arcs.ranked) {
    pram::parallel_for(0, n, [&](std::size_t x) {
      ctx.level[x] = 0;
      ctx.root_of[x] = static_cast<u32>(x);
    });
    return;
  }
  {
    prof::Scope scope("layout");
    lay_out_tour(cs, ctx);
  }
  prof::Scope scope("levels");
  levels_euler(cs, ctx);
}

void root_path_sums(ForestContext& ctx, std::span<const u32> vals, std::span<u32> out) {
  const Arcs& arcs = ctx.arcs;
  const std::size_t n = ctx.size();
  const bool aliased = out.data() == vals.data();
  if (!arcs.ranked) {  // no tree nodes: every path is its root alone
    if (!aliased) pram::parallel_for(0, n, [&](std::size_t x) { out[x] = vals[x]; });
    return;
  }
  // The leader array is dead since the layout; cycle arcs weigh 0.
  const std::span<u32> prefix = ctx.arcs.leader;
  pram::parallel_for(0, n, [&](std::size_t xi) {
    const u32 x = static_cast<u32>(xi);
    const u32 v = ctx.is_root[x] ? 0 : vals[x];
    prefix[arcs.pos[Arcs::down_arc(x)]] = v;
    prefix[arcs.pos[Arcs::up_arc(x)]] = 0u - v;
  });
  prim::inclusive_scan<u32>(prefix, prefix);
  // The prefix at a down-arc covers the path below the root, so add the
  // root's value.  Roots keep theirs, and are not written at all when `out`
  // aliases `vals`, so every read of a root's value sees it unchanged.
  pram::parallel_for(0, n, [&](std::size_t x) {
    if (ctx.is_root[x]) {
      if (!aliased) out[x] = vals[x];
      return;
    }
    out[x] = vals[ctx.root_of[x]] + prefix[arcs.pos[Arcs::down_arc(static_cast<u32>(x))]];
  });
}

}  // namespace sfcp::graph
