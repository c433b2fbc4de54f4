#include "core/tree_labeling.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "pram/parallel_for.hpp"
#include "prim/compact.hpp"
#include "prim/hash_table.hpp"
#include "prim/integer_sort.hpp"
#include "prim/rename.hpp"
#include "prim/scan.hpp"
#include "prof/profile.hpp"

namespace sfcp::core {

namespace {

// Fresh labels for residual nodes start above every already-used label so
// they can never collide with cycle labels (Lemma 4.1 guarantees residual
// nodes share no Q-label with any cycle node).
struct Residual {
  std::vector<u32> nodes;       ///< residual (unkept) tree nodes
  std::vector<u8> is_residual;  ///< membership flags
};

// Step 5, strategy (a): process residual nodes level by level; one GLOBAL
// (B, Q_parent) -> label table realizes Lemma 2.1(i) directly.  The nodes
// are renumbered once into level order, so a level's round streams over
// its slice of level-ordered arrays.  A parent sits in an earlier, already
// labelled slice, small and cache-resident, so every key is known ahead and
// its table slot is prefetched before the insert that needs it.
//
// Level-order slots go into `slot` (n-sized, scratch); they and the labels
// of already labelled parents stay below kSlotTag, which tags a key whose
// parent half is a slot rather than a label.
constexpr u32 kSlotTag = 1u << 31;
constexpr std::size_t kPrefetchAhead = 16;

// glibc's default mmap threshold: larger blocks are mapped afresh per
// allocation and fault in on first touch.
constexpr std::size_t kKeptTableBytes = std::size_t{128} << 10;

void label_level_synchronous(const graph::Instance& inst, Residual& res,
                             std::span<const u32> level, std::span<u32> slot, std::vector<u32>& q,
                             u32 fresh_base, prim::ConcurrentPairMap& table) {
  const std::size_t nr = res.nodes.size();
  if (nr == 0) return;
  assert(inst.size() < kSlotTag);
  // Bucket residual nodes by level (stable integer sort); `node` holds
  // indices into res.nodes until the gather below.
  std::vector<u64> key(nr);
  pram::parallel_for(0, nr, [&](std::size_t i) { key[i] = level[res.nodes[i]]; });
  std::vector<u32> node = prim::sort_order_by_key(key);
  std::vector<std::size_t> level_start{0};
  while (level_start.back() < nr) {
    const auto first = node.begin() + static_cast<std::ptrdiff_t>(level_start.back());
    const u64 lv = key[*first];
    const auto end = std::partition_point(first, node.end(), [&](u32 j) { return key[j] == lv; });
    level_start.push_back(static_cast<std::size_t>(end - node.begin()));
  }
  pram::charge(level_start.size());
  // Gather: node ids in level order, their slots, then each node's key with
  // its parent's label, or with its residual parent's tagged slot.
  pram::parallel_for(0, nr, [&](std::size_t i) {
    node[i] = res.nodes[node[i]];
    slot[node[i]] = static_cast<u32>(i);
  });
  pram::parallel_for(0, nr, [&](std::size_t i) {
    const u32 x = node[i];
    const u32 p = inst.f[x];
    assert(res.is_residual[p] || q[p] < kSlotTag);
    key[i] = pack_pair(inst.b[x], res.is_residual[p] ? kSlotTag | slot[p] : q[p]);
  });
  // The level-ordered labels take over res.nodes, dead after the gather.
  // A round writes its slice before any later round reads it.
  std::vector<u32> label = std::move(res.nodes);
  const auto key_of = [&](std::size_t i) {
    const u64 k = key[i];
    const u32 parent = pair_lo(k);
    return (parent & kSlotTag) == 0 ? k : pack_pair(pair_hi(k), label[parent & ~kSlotTag]);
  };
  table.reset(nr);
  for (std::size_t l = 0; l + 1 < level_start.size(); ++l) {
    const std::size_t begin = level_start[l];
    const std::size_t width = level_start[l + 1] - begin;
    // A level narrower than the grain runs as one block, alone on the table.
    const bool unshared = pram::num_blocks(width) == 1;
    pram::parallel_blocks(width, [&](int, std::size_t lo, std::size_t hi) {
      for (std::size_t i = begin + lo; i < begin + hi; ++i) {
        if (i + kPrefetchAhead < begin + hi) table.prefetch(key_of(i + kPrefetchAhead));
        const u32 proposal = fresh_base + node[i];
        label[i] = unshared ? table.insert_or_get_unshared(key_of(i), proposal)
                            : table.insert_or_get(key_of(i), proposal);
        q[node[i]] = label[i];
      }
    });
  }
}

// Step 5, strategy (b): ancestor doubling.  Residual chains are extended
// with one virtual self-looping node per distinct anchor label (the Q-label
// of the first labelled ancestor), so path strings become infinite and
// eventually constant; 2^j-prefix codes then converge to the Lemma 4.2
// equivalence in ceil(log2(depth+2)) rounds.
void label_ancestor_doubling(const graph::Instance& inst, const Residual& res,
                             std::vector<u32>& q, u32 fresh_base, prim::ConcurrentPairMap& table) {
  const std::size_t nr = res.nodes.size();
  if (nr == 0) return;
  // Dense index of residual nodes.
  std::vector<u32> idx(inst.size(), kNone);
  pram::parallel_for(0, nr, [&](std::size_t i) { idx[res.nodes[i]] = static_cast<u32>(i); });
  // Anchor labels (Q of first labelled ancestor) for residual roots.
  std::vector<u32> anchor(nr, kNone);
  pram::parallel_for(0, nr, [&](std::size_t i) {
    const u32 p = inst.f[res.nodes[i]];
    if (!res.is_residual[p]) anchor[i] = q[p];
  });
  // Dense ids for distinct anchors -> virtual node per anchor class.
  std::vector<u64> anchor_keys;
  std::vector<u32> anchored_nodes;
  for (std::size_t i = 0; i < nr; ++i) {
    if (anchor[i] != kNone) {
      anchor_keys.push_back(anchor[i]);
      anchored_nodes.push_back(static_cast<u32>(i));
    }
  }
  const auto anchor_rename = prim::rename_sorted(anchor_keys);
  const u32 num_virtual = anchor_rename.num_classes;
  const std::size_t total = nr + num_virtual;
  // code[u]: current 2^j-prefix code; anc[u]: 2^j-th ancestor (virtual
  // nodes self-loop).  Initial codes must separate "real node with B-label
  // b" from "virtual node with anchor class a": tag with the pair's high
  // bit via rename over (tag, value).
  std::vector<u32> tag(total), val(total);
  pram::parallel_for(0, total, [&](std::size_t u) {
    if (u < nr) {
      tag[u] = 0;
      val[u] = inst.b[res.nodes[u]];
    } else {
      tag[u] = 1;
      val[u] = static_cast<u32>(u - nr);
    }
  });
  auto code_r = prim::rename_pairs_hashed(tag, val);
  std::vector<u32> code = std::move(code_r.labels);
  std::vector<u32> anc(total);
  pram::parallel_for(0, nr, [&](std::size_t i) {
    const u32 p = inst.f[res.nodes[i]];
    anc[i] = res.is_residual[p] ? idx[p] : kNone;  // patched below for anchors
  });
  pram::parallel_for(0, anchored_nodes.size(), [&](std::size_t t) {
    anc[anchored_nodes[t]] = static_cast<u32>(nr) + anchor_rename.labels[t];
  });
  pram::parallel_for(0, num_virtual, [&](std::size_t v) {
    anc[nr + v] = static_cast<u32>(nr + v);  // self-loop
  });
  const int rounds = static_cast<int>(std::bit_width(static_cast<u64>(total))) + 1;
  std::vector<u32> code2(total), anc2(total);
  for (int r = 0; r < rounds; ++r) {
    auto paired = prim::rename_pairs_hashed(code, [&] {
      std::vector<u32> right(total);
      pram::parallel_for(0, total, [&](std::size_t u) { right[u] = code[anc[u]]; });
      return right;
    }());
    pram::parallel_for(0, total, [&](std::size_t u) {
      code2[u] = paired.labels[u];
      anc2[u] = anc[anc[u]];
    });
    code.swap(code2);
    anc.swap(anc2);
  }
  // Final labels: fresh_base + winner of each code class.
  table.reset(nr);
  pram::parallel_for(0, nr, [&](std::size_t i) {
    q[res.nodes[i]] = table.insert_or_get(code[i], fresh_base + static_cast<u32>(i));
  });
}

// Strategy (c): steps 1-5 in one top-down walk per tree over f's preimage
// lists.  A node's corresponding cycle position is its parent's minus 1
// (mod k), and it stays marked (Lemma 4.1) while its parent is and its
// B-label matches its corresponding node's.  A marked node takes that
// node's Q-label; an unmarked one, the class of (B, parent label) in one
// sequential table (Lemma 4.2).  Labels tell the marks apart: a marked
// node's is a cycle label, an unmarked one's fresh, from cl.num_labels up.
void label_sequential_walk(const graph::Instance& inst, const graph::CycleStructure& cs,
                           const graph::EulerPartition& arcs, const CycleLabeling& cl,
                           TreeLabeling& out) {
  struct Entry {
    u32 x, t, parent_q;  ///< node, its corresponding cycle position, its parent's label
  };
  prim::FlatPairMap table(inst.size() - cs.cycle_nodes.size());
  u32 next_label = cl.num_labels;
  std::vector<Entry> stack;
  for (std::size_t c = 0; c < cs.num_cycles(); ++c) {
    const u32* cycle = cs.cycle_nodes.data() + cs.cycle_offset[c];
    const u32 k = cs.cycle_length(c);
    for (u32 t = 0; t < k; ++t) {
      // The root's children sit at position t - 1, as does its cycle
      // predecessor, the one preimage that is not its child.
      const u32 below = (t == 0 ? k : t) - 1;
      for (const u32 x : arcs.preimages(cycle[t])) {
        if (x != cycle[below]) stack.push_back({x, below, cl.q[cycle[t]]});
      }
      while (!stack.empty()) {
        const Entry e = stack.back();
        stack.pop_back();
        const u32 y = cycle[e.t];
        u32& q = out.q[e.x];
        if (e.parent_q < cl.num_labels && inst.b[e.x] == inst.b[y]) {
          q = cl.q[y];
          ++out.kept;
        } else {
          q = table.insert_or_get(pack_pair(inst.b[e.x], e.parent_q), next_label);
          if (q == next_label) ++next_label;
          ++out.residual;
        }
        const u32 below_x = (e.t == 0 ? k : e.t) - 1;
        for (const u32 child : arcs.preimages(e.x)) stack.push_back({child, below_x, q});
      }
    }
  }
  pram::charge(inst.size());
}

}  // namespace

void label_trees_into(const graph::Instance& inst, const graph::CycleStructure& cs,
                      const CycleLabeling& cl, const TreeLabelingOptions& opt, TreeLabeling& out) {
  label_trees_into(inst, cs, cl, opt, out, false);
}

void label_trees_into(const graph::Instance& inst, const graph::CycleStructure& cs,
                      const CycleLabeling& cl, const TreeLabelingOptions& opt, TreeLabeling& out,
                      bool arcs_built) {
  const std::size_t n = inst.size();
  out.q = cl.q;
  out.kept = 0;
  out.residual = 0;
  if (cs.cycle_nodes.size() == n) return;  // no trees to label

  graph::ForestContext& fc = out.forest;
  if (opt.strategy == TreeLabelStrategy::SequentialDFS) {
    if (!arcs_built) {
      prof::Scope scope("partition");
      graph::build_preimages_into(inst.f, fc.arcs);
    }
    prof::Scope scope("walk");
    return label_sequential_walk(inst, cs, fc.arcs, cl, out);
  }
  graph::build_forest_context_into(inst.f, cs, arcs_built, fc);

  // Steps 1-2: mark tree nodes whose B-label matches the corresponding
  // cycle node (Lemma 4.1); cycle nodes are trivially marked.  Every tree
  // node takes its corresponding node's Q-label for now; `bad` flags the
  // unmarked ones.
  std::vector<u32> bad(n);
  pram::parallel_for(0, n, [&](std::size_t x) {
    if (cs.on_cycle[x]) {
      bad[x] = 0;
      return;
    }
    const u32 r = fc.root_of[x];
    const u32 c = cs.cycle_of[r];
    const u32 k = cs.length[r];
    const u32 t = (cs.rank[r] + (k - fc.level[x] % k)) % k;
    const u32 y = cs.node_at(c, t);
    out.q[x] = cl.q[y];
    bad[x] = inst.b[x] == inst.b[y] ? 0 : 1;
  });

  // Step 3: keep a node iff its whole root path is marked — the root-path
  // count of unmarked nodes must be zero.
  {
    prof::Scope scope("sums");
    graph::root_path_sums(fc, bad, bad);
  }

  // Step 4: kept nodes keep their corresponding cycle node's Q-label; the
  // rest form the residual forest, unlabelled until step 5.  The
  // compaction's flag pass marks them.
  Residual res;
  res.is_residual.resize(n);
  res.nodes = prim::pack_index_if(n, [&](std::size_t x) {
    res.is_residual[x] = bad[x] != 0;
    if (res.is_residual[x]) out.q[x] = kNone;
    return res.is_residual[x];
  });
  out.residual = static_cast<u32>(res.nodes.size());
  out.kept = static_cast<u32>(n - cs.cycle_nodes.size() - res.nodes.size());

  // Step 5: label the residual forest; `bad` is dead and lends its storage.
  prof::Scope scope("step5");
  const u32 fresh_base = cl.num_labels;
  if (opt.strategy == TreeLabelStrategy::LevelSynchronous) {
    label_level_synchronous(inst, res, fc.level, bad, out.q, fresh_base, out.table);
  } else {
    label_ancestor_doubling(inst, res, out.q, fresh_base, out.table);
  }
  // A table below the allocator's mapping threshold comes back from the
  // heap without page faults, so only a larger one is worth keeping.
  if (out.table.bytes() < kKeptTableBytes) out.table = {};
}

}  // namespace sfcp::core
