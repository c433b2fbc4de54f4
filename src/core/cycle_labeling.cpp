#include "core/cycle_labeling.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "pram/parallel_for.hpp"
#include "prim/hash_table.hpp"
#include "prim/integer_sort.hpp"
#include "prim/rename.hpp"
#include "prim/scan.hpp"
#include "prof/profile.hpp"
#include "strings/period.hpp"

namespace sfcp::core {

std::vector<u32> partition_equal_strings(std::span<const u32> flat, std::size_t k, std::size_t L,
                                         RenameBackend backend) {
  assert(L > 0 && std::has_single_bit(L));
  assert(flat.size() == k * L);
  std::vector<u32> eq(flat.begin(), flat.end());
  std::vector<u32> reps(k);
  if (k == 0) return reps;
  // Round j: positions p = 0, 2^j, 2*2^j, ... within each string combine
  // with their 2^{j-1}-shifted partner; only n/2^j positions participate,
  // so total work is geometric (Lemma 3.11's O(n) bound).
  for (std::size_t stride = 2; stride <= L; stride <<= 1) {
    const std::size_t half = stride >> 1;
    const std::size_t per_string = L / stride;
    const std::size_t participants = k * per_string;
    std::vector<u32> a(participants), b(participants), d1(participants);
    pram::parallel_for(0, participants, [&](std::size_t t) {
      const std::size_t i = t / per_string;
      const std::size_t p = (t % per_string) * stride;
      const std::size_t pos = i * L + p;
      d1[t] = static_cast<u32>(pos);
      a[t] = eq[pos];
      b[t] = eq[pos + half];
    });
    if (backend == RenameBackend::Hashed) {
      // BB[EQ[d1], EQ[d2]] <- d1 ; EQ[d1] <- BB[EQ[d1], EQ[d2]]  (arbitrary
      // CRCW: one winner per distinct pair).  Fresh table per round keeps
      // rounds from aliasing each other's label spaces.
      prim::ConcurrentPairMap table(participants);
      pram::parallel_for(0, participants, [&](std::size_t t) {
        eq[d1[t]] = table.insert_or_get(pack_pair(a[t], b[t]), d1[t]);
      });
    } else {
      const auto ranks = prim::rename_pairs_sorted(a, b);
      pram::parallel_for(0, participants, [&](std::size_t t) {
        eq[d1[t]] = ranks.labels[t];
      });
    }
  }
  pram::parallel_for(0, k, [&](std::size_t i) { reps[i] = eq[i * L]; });
  return reps;
}

namespace {

// Per-cycle period and m.s.p. of the period prefix, and each cycle's
// B-label string laid out as the cycle nodes are (cycle c at
// cs.cycle_offset[c]), its period prefix rotated to start at the m.s.p.
// The rest of the string holds more copies of the period, so `data` has the
// same symbols as the reduced strings alone.
struct ReducedCycles {
  std::vector<u32> period;  // per cycle
  std::vector<u32> msp;     // per cycle, in [0, period)
  std::vector<u32> data;    // per cycle node
};

// Records cycle c's period p and m.s.p. j0, and rotates its period prefix
// in place to start at j0.
void reduce_one(const graph::CycleStructure& cs, std::size_t c, u32 p, u32 j0,
                ReducedCycles& red) {
  const auto first = red.data.begin() + cs.cycle_offset[c];
  std::rotate(first, first + j0, first + p);
  red.period[c] = p;
  red.msp[c] = j0;
}

ReducedCycles reduce_cycles(const graph::Instance& inst, const graph::CycleStructure& cs,
                            const CycleLabelingOptions& opt) {
  const std::size_t k = cs.num_cycles();
  const std::size_t m = cs.cycle_nodes.size();
  ReducedCycles red;
  red.period.resize(k);
  red.msp.resize(k);
  red.data.resize(m);
  const auto gather = [&](std::size_t i) { red.data[i] = inst.b[cs.cycle_nodes[i]]; };
  prof::Scope scope("period_msp");
  if (k >= static_cast<std::size_t>(pram::threads()) * 2) {
    // Many cycles: one sequential pass per cycle finds its period and m.s.p.
    // together.  Lanes are balanced by node count, not cycle count: each
    // block of the cycle-node range takes the cycles that start inside it
    // and gathers their labels while it reduces them.
    const std::span<const u32> offsets(cs.cycle_offset.data(), k);
    pram::parallel_blocks(m, [&](int, std::size_t lo, std::size_t hi) {
      std::size_t c = static_cast<std::size_t>(
          std::lower_bound(offsets.begin(), offsets.end(), lo) - offsets.begin());
      for (; c < k && offsets[c] < hi; ++c) {
        const u32 off = offsets[c];
        const u32 len = cs.cycle_offset[c + 1] - off;
        for (u32 i = off; i < off + len; ++i) gather(i);
        const strings::PeriodMsp pm = strings::period_and_msp({red.data.data() + off, len});
        reduce_one(cs, c, pm.period, pm.msp, red);
      }
    });
    return red;
  }
  // Few big cycles: the configured parallel kernels work within each one.
  pram::parallel_for(0, m, gather);
  for (std::size_t c = 0; c < k; ++c) {
    const u32 off = cs.cycle_offset[c];
    const std::span<const u32> s{red.data.data() + off, cs.cycle_offset[c + 1] - off};
    const u32 p = opt.parallel_period ? strings::smallest_period_parallel(s)
                                      : strings::smallest_period_seq(s);
    reduce_one(cs, c, p, strings::minimal_starting_point(s.first(p), opt.msp), red);
  }
  return red;
}

}  // namespace

CycleLabeling label_cycles(const graph::Instance& inst, const graph::CycleStructure& cs,
                           const CycleLabelingOptions& opt) {
  CycleLabeling out;
  label_cycles_into(inst, cs, opt, out);
  return out;
}

void label_cycles_into(const graph::Instance& inst, const graph::CycleStructure& cs,
                       const CycleLabelingOptions& opt, CycleLabeling& out) {
  const std::size_t n = inst.size();
  const std::size_t k = cs.num_cycles();
  out.q.assign(n, kNone);
  out.num_labels = 0;
  out.period.clear();
  out.msp.clear();
  out.class_id.clear();
  out.num_classes = 0;
  if (k == 0) return;

  ReducedCycles red = reduce_cycles(inst, cs, opt);
  out.period = red.period;
  out.msp = red.msp;

  // Group cycles by period; only same-period cycles can be equivalent
  // (non-repeating reduced strings of different lengths always differ).
  std::vector<u64> period_keys(k);
  pram::parallel_for(0, k, [&](std::size_t c) { period_keys[c] = red.period[c]; });
  const std::vector<u32> by_period = prim::sort_order_by_key(period_keys);

  // For each maximal run of equal periods in `by_period`, pad to the next
  // power of two and run Algorithm partition.  A run of one cycle is its
  // own class: it takes representative 0 with no partition and no padded
  // copy (class ids are canonicalized (period, rep) pairs, so any
  // representative unique within the period gives the same labels).
  std::vector<u32> rep(k, 0);  // representative label per cycle (within its period group)
  // The blank symbol for padding must differ from every real label.  It is
  // max_label + 1 unless the labels reach the top of u32, where a (blank,
  // blank) padding pair would collide with the hash table's reserved key:
  // then the labels are compressed first.  Both are prepared on the first
  // multi-cycle run.
  std::span<const u32> data;
  std::vector<u32> compressed;
  u32 blank = 0;
  const auto prepare_padding = [&] {
    if (!data.empty()) return;  // prepared already
    data = red.data;
    blank = prim::reduce_max<u32>(red.data) + 1;
    if (blank == 0 || blank == kNone) {
      auto renamed = prim::rename_sorted(std::vector<u64>(red.data.begin(), red.data.end()));
      compressed = std::move(renamed.labels);
      data = compressed;
      blank = renamed.num_classes;
    }
  };
  std::size_t run_begin = 0;
  while (run_begin < k) {
    std::size_t run_end = run_begin + 1;
    const u32 p = red.period[by_period[run_begin]];
    while (run_end < k && red.period[by_period[run_end]] == p) ++run_end;
    const std::size_t kk = run_end - run_begin;
    if (kk > 1) {
      prepare_padding();
      const std::size_t L = std::bit_ceil(static_cast<std::size_t>(p));
      std::vector<u32> flat(kk * L, blank);
      pram::parallel_for(0, kk, [&](std::size_t t) {
        const u32 c = by_period[run_begin + t];
        for (u32 i = 0; i < p; ++i) flat[t * L + i] = data[cs.cycle_offset[c] + i];
      });
      const std::vector<u32> group_rep =
          partition_equal_strings(flat, kk, L, opt.partition_backend);
      pram::parallel_for(0, kk, [&](std::size_t t) {
        rep[by_period[run_begin + t]] = group_rep[t];
      });
    }
    run_begin = run_end;
  }

  // Global dense class ids: (period, representative) pairs, canonicalized
  // to first-occurrence order over cycles so label assignment is
  // deterministic regardless of backend.
  std::vector<u32> pair_label(k);
  {
    const auto pr = prim::rename_pairs_hashed(red.period, rep);
    const auto canon = prim::canonicalize_labels(pr.labels);
    pair_label = canon.labels;
    out.num_classes = canon.num_classes;
  }
  out.class_id = pair_label;

  // Label bases: each class consumes `period` labels; bases by class id.
  std::vector<u32> class_period(out.num_classes, 0);
  for (std::size_t c = 0; c < k; ++c) class_period[pair_label[c]] = red.period[c];
  std::vector<u32> base(out.num_classes + 1, 0);
  prim::exclusive_scan<u32>(class_period, std::span<u32>(base).first(out.num_classes));
  base[out.num_classes] =
      out.num_classes ? base[out.num_classes - 1] + class_period[out.num_classes - 1] : 0;
  out.num_labels = base[out.num_classes];
  pram::charge(2 * k);

  // Q-label every cycle node: q = base(class) + (rank - msp) mod period.
  // The period divides the length, so (rank - msp) mod length needs no
  // division, and only a repeating cycle takes the remainder by its period.
  pram::parallel_for(0, n, [&](std::size_t x) {
    if (!cs.on_cycle[x]) return;
    const u32 c = cs.cycle_of[x];
    const u32 p = red.period[c];
    const u32 len = cs.length[x];
    const u32 r = cs.rank[x];
    const u32 j0 = red.msp[c];
    u32 shifted = r >= j0 ? r - j0 : r + len - j0;
    if (p != len) shifted %= p;
    out.q[x] = base[pair_label[c]] + shifted;
  });
}

}  // namespace sfcp::core
