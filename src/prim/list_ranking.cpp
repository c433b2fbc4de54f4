#include "prim/list_ranking.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "pram/parallel_for.hpp"
#include "prim/compact.hpp"
#include "prim/hash_table.hpp"

namespace sfcp::prim {

namespace {

// Heads = nodes with no predecessor.  Every acyclic list has exactly one.
std::vector<u32> find_heads(std::span<const u32> next) {
  const std::size_t n = next.size();
  std::vector<u8> has_pred(n, 0);
  pram::parallel_for(0, n, [&](std::size_t i) {
    if (next[i] != kNone) has_pred[next[i]] = 1;  // common-CRCW write
  });
  return pack_index_if(n, [&](std::size_t i) { return !has_pred[i]; });
}

std::vector<u32> rank_sequential(std::span<const u32> next) {
  const std::size_t n = next.size();
  std::vector<u32> rank(n, 0);
  const std::vector<u32> heads = find_heads(next);
  std::vector<u32> chain;
  for (u32 h : heads) {
    chain.clear();
    for (u32 v = h; v != kNone; v = next[v]) chain.push_back(v);
    const u32 len = static_cast<u32>(chain.size());
    for (u32 i = 0; i < len; ++i) rank[chain[i]] = len - 1 - i;
  }
  pram::charge(n);
  return rank;
}

std::vector<u32> rank_pointer_jumping(std::span<const u32> next_in) {
  const std::size_t n = next_in.size();
  std::vector<u32> rank(n), next(next_in.begin(), next_in.end());
  if (n == 0) return rank;
  pram::parallel_for(0, n, [&](std::size_t i) { rank[i] = next[i] == kNone ? 0u : 1u; });
  std::vector<u32> rank2(n), next2(n);
  // After round k every pointer has jumped 2^k links, so ceil(log2 n)
  // rounds suffice for lists of length <= n.
  const int log_rounds = static_cast<int>(std::bit_width(n - 1)) + 1;
  for (int r = 0; r < log_rounds; ++r) {
    pram::parallel_for(0, n, [&](std::size_t i) {
      if (next[i] != kNone) {
        rank2[i] = rank[i] + rank[next[i]];
        next2[i] = next[next[i]];
      } else {
        rank2[i] = rank[i];
        next2[i] = kNone;
      }
    });
    rank.swap(rank2);
    next.swap(next2);
  }
  return rank;
}

// Segment walks, kWalks in flight per block.  A walk is a chain of
// dependent cache misses; stepping several walks in turn, each prefetching
// its next element, overlaps the misses of independent segments.  start(j)
// begins segment j's walk; step(walk) advances it by one element and
// returns false once the segment is done.  One round of s operations: the
// caller charges the walked elements beyond the first of each segment.
template <typename Walk, typename Start, typename Step>
void walk_segments(std::size_t s, Start&& start, Step&& step) {
  constexpr std::size_t kWalks = 8;
  pram::parallel_blocks(s, [&](int, std::size_t lo, std::size_t hi) {
    Walk walk[kWalks];
    std::size_t live = 0, next = lo;
    for (; live < kWalks && next < hi; ++live) walk[live] = start(next++);
    while (live > 0) {
      for (std::size_t i = 0; i < live;) {
        if (step(walk[i])) {
          ++i;
        } else if (next < hi) {
          walk[i++] = start(next++);
        } else {
          walk[i] = walk[--live];
        }
      }
    }
  });
}

std::vector<u32> rank_ruling_set(std::span<const u32> next) {
  const std::size_t n = next.size();
  std::vector<u32> rank(n, 0);
  if (n == 0) return rank;
  // Splitters: list heads plus the hash sample of ~n/64 nodes, so segment
  // lengths are O(64) in expectation.
  std::vector<u8> is_splitter(n, 0);
  pram::parallel_for(0, n, [&](std::size_t i) { is_splitter[i] = is_ruling_splitter(i) ? 1 : 0; });
  for (u32 h : find_heads(next)) is_splitter[h] = 1;
  const std::vector<u32> splitters = pack_index(is_splitter);
  const std::size_t s = splitters.size();
  std::vector<u32> splitter_id(n, kNone);
  pram::parallel_for(0, s, [&](std::size_t j) { splitter_id[splitters[j]] = static_cast<u32>(j); });
  // Walk each segment: record the hop offset of every node from its owning
  // splitter, the segment length, and the successor splitter.  A successor
  // is never a head, so the hash sample alone decides whether it splits.
  std::vector<u32> seg_len(s, 0);
  std::vector<u32> seg_next(s, kNone);
  std::vector<u32> local_off(n, 0);
  struct Walk {
    u32 j, v, hops;
  };
  walk_segments<Walk>(
      s, [&](std::size_t j) { return Walk{static_cast<u32>(j), splitters[j], 0}; },
      [&](Walk& w) {
        local_off[w.v] = w.hops;
        const u32 x = next[w.v];
        if (x == kNone) {
          seg_len[w.j] = w.hops;  // w.v is the list end: distance(w.v, end) == 0
          return false;
        }
        if (is_ruling_splitter(x)) {
          seg_len[w.j] = w.hops + 1;
          seg_next[w.j] = splitter_id[x];
          return false;
        }
        __builtin_prefetch(&next[x]);
        ++w.hops;
        w.v = x;
        return true;
      });
  pram::charge(n - s);  // the walks cover all n nodes, not one per splitter
  // Rank the contracted splitter list sequentially (expected size n/64).
  // seg_rank[j] = hops from the END of segment j to the list end.
  std::vector<u32> seg_rank(s, 0);
  {
    std::vector<u32> indeg(s, 0);
    for (std::size_t j = 0; j < s; ++j) {
      if (seg_next[j] != kNone) ++indeg[seg_next[j]];
    }
    std::vector<u32> chain;
    for (std::size_t j = 0; j < s; ++j) {
      if (indeg[j] != 0) continue;
      chain.clear();
      for (u32 c = static_cast<u32>(j); c != kNone; c = seg_next[c]) chain.push_back(c);
      u32 dist = 0;
      for (std::size_t t = chain.size(); t-- > 0;) {
        seg_rank[chain[t]] = dist;
        dist += seg_len[chain[t]];
      }
    }
    pram::charge(2 * s);
  }
  // Expand: distance(v, end) = seg_rank[owner] + seg_len[owner] - off(v).
  struct Expand {
    u32 v, base;
  };
  walk_segments<Expand>(
      s, [&](std::size_t j) { return Expand{splitters[j], seg_rank[j] + seg_len[j]}; },
      [&](Expand& w) {
        rank[w.v] = w.base - local_off[w.v];
        const u32 x = next[w.v];
        if (x == kNone || is_ruling_splitter(x)) return false;
        __builtin_prefetch(&next[x]);
        __builtin_prefetch(&local_off[x]);
        w.v = x;
        return true;
      });
  pram::charge(n - s);
  return rank;
}

// Two blocked passes over [0, n): returns the x with pick(x), ascending, and
// calls visit(x, i) for every x, with i = x's index in the result, or kNone
// when x is not picked.  A compaction without n-sized scratch.
template <typename Pick, typename Visit>
std::vector<u32> pack_and_visit(std::size_t n, Pick&& pick, Visit&& visit) {
  const int nb = pram::num_blocks(n);
  std::vector<u32> base(static_cast<std::size_t>(nb) + 1, 0);
  pram::parallel_blocks(n, [&](int b, std::size_t lo, std::size_t hi) {
    u32 c = 0;
    for (std::size_t x = lo; x < hi; ++x) c += pick(x) ? 1 : 0;
    base[static_cast<std::size_t>(b) + 1] = c;
  });
  for (int b = 0; b < nb; ++b) base[b + 1] += base[b];
  std::vector<u32> out(base[nb]);
  pram::parallel_blocks(n, [&](int b, std::size_t lo, std::size_t hi) {
    u32 i = base[static_cast<std::size_t>(b)];
    for (std::size_t x = lo; x < hi; ++x) {
      if (pick(x)) {
        out[i] = static_cast<u32>(x);
        visit(x, i++);
      } else {
        visit(x, kNone);
      }
    }
  });
  return out;
}

}  // namespace

std::vector<u32> list_rank(std::span<const u32> next, ListRankStrategy strategy) {
  switch (strategy) {
    case ListRankStrategy::Sequential:
      return rank_sequential(next);
    case ListRankStrategy::PointerJumping:
      return rank_pointer_jumping(next);
    case ListRankStrategy::RulingSet:
      return rank_ruling_set(next);
  }
  return rank_sequential(next);
}

void rank_orbits(std::span<const u32> succ, std::span<const u8> active, std::span<u32> leader,
                 std::span<u32> rank, std::span<u32> length) {
  const std::size_t n = succ.size();
  assert(leader.size() == n && (rank.empty() || rank.size() == n) &&
         (length.empty() || length.size() == n) && (active.empty() || active.size() == n));
  if (n == 0) return;
  const bool want_rank = !rank.empty();
  auto is_active = [&](std::size_t x) { return active.empty() || active[x] != 0; };
  // Until the expansion, leader[x] holds x's segment and rank[x] its offset.
  const std::span<u32> owner = leader;
  const std::span<u32> off = rank;

  // Segments: one per active splitter, numbered in id order.
  const std::vector<u32> starts = pack_and_visit(
      n, [&](std::size_t x) { return is_active(x) && is_ruling_splitter(x); },
      [&](std::size_t x, u32 j) {
        if (is_active(x)) owner[x] = j;
      });
  const std::size_t s = starts.size();
  struct Segment {
    u32 len, next, min, min_off;  // min_off: steps from the first element to min
  };
  std::vector<Segment> seg(s);
  struct Walk {
    u32 j, v, hops, mn, mn_off;
  };
  walk_segments<Walk>(
      s,
      [&](std::size_t j) {
        const u32 v = starts[j];
        if (want_rank) off[v] = 0;
        return Walk{static_cast<u32>(j), v, 0, v, 0};
      },
      [&](Walk& w) {
        const u32 x = succ[w.v];
        if (is_ruling_splitter(x)) {
          seg[w.j] = Segment{w.hops + 1, owner[x], w.mn, w.mn_off};
          return false;
        }
        __builtin_prefetch(&succ[x]);
        ++w.hops;
        owner[x] = w.j;
        if (want_rank) off[x] = w.hops;
        if (x < w.mn) {
          w.mn = x;
          w.mn_off = w.hops;
        }
        w.v = x;
        return true;
      });
  u64 walked = 0;
  for (const Segment& g : seg) walked += g.len;
  pram::charge(walked - s);

  // Every element of an orbit no splitter lies on is a one-element segment.
  const std::vector<u32> lone = pack_and_visit(
      n, [&](std::size_t x) { return is_active(x) && owner[x] == kNone; },
      [&](std::size_t x, u32 i) {
        if (i == kNone) return;
        owner[x] = static_cast<u32>(s + i);
        if (want_rank) off[x] = 0;
      });
  const std::size_t t = s + lone.size();
  seg.resize(t);
  pram::parallel_for(0, lone.size(), [&](std::size_t i) {
    seg[s + i] = Segment{1, owner[succ[lone[i]]], lone[i], 0};
  });

  // Rank the contracted permutation sequentially (expected size n/64), one
  // walk per orbit: each segment gets its orbit's index and the steps from
  // the orbit's first walked element to its own first element; the orbit
  // keeps its leader, the leader's steps from that same start, and its
  // length.
  struct Placed {
    u32 orbit, steps;
  };
  struct Orbit {
    u32 leader, shift, len;
  };
  std::vector<Placed> placed(t, Placed{kNone, 0});
  std::vector<Orbit> orbits;
  orbits.reserve(t);
  for (u32 j = 0; j < t; ++j) {
    if (placed[j].orbit != kNone) continue;
    const u32 k = static_cast<u32>(orbits.size());
    Orbit o{seg[j].min, seg[j].min_off, 0};
    for (u32 c = j;;) {
      placed[c] = Placed{k, o.len};
      if (seg[c].min < o.leader) {
        o.leader = seg[c].min;
        o.shift = o.len + seg[c].min_off;
      }
      o.len += seg[c].len;
      if ((c = seg[c].next) == j) break;
    }
    orbits.push_back(o);
  }
  pram::charge(t);
  pram::parallel_for(0, n, [&](std::size_t x) {
    if (!is_active(x)) return;
    const Placed p = placed[owner[x]];
    const Orbit o = orbits[p.orbit];
    if (want_rank) {
      // Steps from the walk's start, then from the leader, both mod len.
      u32 r = p.steps + off[x];
      if (r >= o.len) r -= o.len;
      rank[x] = r >= o.shift ? r - o.shift : r + o.len - o.shift;
    }
    if (!length.empty()) length[x] = o.len;
    leader[x] = o.leader;
  });
}

}  // namespace sfcp::prim
