#include "core/cycle_labeling.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "pram/parallel_for.hpp"
#include "prim/hash_table.hpp"
#include "prim/integer_sort.hpp"
#include "prim/rename.hpp"
#include "prim/scan.hpp"
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

// Per-cycle period + m.s.p. of the period prefix, and the rotated reduced
// string laid out in a CSR array.
struct ReducedCycles {
  std::vector<u32> period;   // per cycle
  std::vector<u32> msp;      // per cycle, in [0, period)
  std::vector<u32> data;     // reduced strings, concatenated per cycle
  std::vector<u32> offsets;  // CSR (size k+1)
};

ReducedCycles reduce_cycles(const graph::Instance& inst, const graph::CycleStructure& cs,
                            const CycleLabelingOptions& opt) {
  const std::size_t k = cs.num_cycles();
  ReducedCycles red;
  red.period.assign(k, 0);
  red.msp.assign(k, 0);
  // Gather each cycle's B-label string (cycles are stored contiguously by
  // rank, so this is one parallel gather).
  std::vector<u32> labels(cs.cycle_nodes.size());
  pram::parallel_for(0, labels.size(), [&](std::size_t i) {
    labels[i] = inst.b[cs.cycle_nodes[i]];
  });
  // Period and m.s.p. per cycle.  Many small cycles -> parallelize across
  // cycles with sequential kernels; few big cycles -> the configured
  // parallel kernels operate within the cycle.
  const bool outer_parallel = k >= static_cast<std::size_t>(pram::threads()) * 2;
  auto process = [&](std::size_t c) {
    const u32 off = cs.cycle_offset[c];
    const u32 len = cs.cycle_offset[c + 1] - off;
    const std::span<const u32> s{labels.data() + off, len};
    const u32 p = (opt.parallel_period && !outer_parallel)
                      ? strings::smallest_period_parallel(s)
                      : strings::smallest_period_seq(s);
    const std::span<const u32> prefix = s.subspan(0, p);
    const strings::MspStrategy msp_strategy =
        outer_parallel ? strings::MspStrategy::Booth : opt.msp;
    const u32 j0 = strings::minimal_starting_point(prefix, msp_strategy);
    red.period[c] = p;
    red.msp[c] = j0;
  };
  if (outer_parallel) {
    pram::parallel_for(0, k, process);
  } else {
    for (std::size_t c = 0; c < k; ++c) process(c);
  }
  // Reduced strings, rotated to start at the m.s.p.
  red.offsets.assign(k + 1, 0);
  prim::exclusive_scan<u32>(red.period, std::span<u32>(red.offsets).first(k));
  red.offsets[k] = red.offsets.empty() ? 0 : (k ? red.offsets[k - 1] + red.period[k - 1] : 0);
  red.data.assign(red.offsets[k], 0);
  pram::parallel_for(0, k, [&](std::size_t c) {
    const u32 off = cs.cycle_offset[c];
    const u32 p = red.period[c];
    const u32 j0 = red.msp[c];
    const u32 base = red.offsets[c];
    for (u32 t = 0; t < p; ++t) {
      red.data[base + t] = labels[off + (j0 + t) % p];
    }
  });
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
        for (u32 i = 0; i < p; ++i) flat[t * L + i] = data[red.offsets[c] + i];
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
  pram::parallel_for(0, n, [&](std::size_t x) {
    if (!cs.on_cycle[x]) return;
    const u32 c = cs.cycle_of[x];
    const u32 p = red.period[c];
    const u32 len = cs.length[x];
    const u32 shifted = (cs.rank[x] + len - red.msp[c]) % p;
    out.q[x] = base[pair_label[c]] + shifted;
  });
}

}  // namespace sfcp::core
