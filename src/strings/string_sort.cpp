#include "strings/string_sort.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "pram/parallel_for.hpp"
#include "prim/integer_sort.hpp"
#include "prim/merge.hpp"
#include "prim/rename.hpp"
#include "prim/scan.hpp"

namespace sfcp::strings {

StringList make_string_list(const std::vector<std::vector<u32>>& strings) {
  StringList list;
  list.offsets.push_back(0);
  for (const auto& s : strings) {
    list.data.insert(list.data.end(), s.begin(), s.end());
    list.offsets.push_back(static_cast<u32>(list.data.size()));
  }
  return list;
}

int compare_spans(std::span<const u32> a, std::span<const u32> b) {
  const std::size_t k = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < k; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

namespace {

std::vector<u32> sort_std(const StringList& list) {
  std::vector<u32> order(list.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<u32>(i);
  std::stable_sort(order.begin(), order.end(), [&](u32 x, u32 y) {
    const int c = compare_spans(list.view(x), list.view(y));
    return c != 0 ? c < 0 : x < y;
  });
  pram::charge(static_cast<u64>(
      static_cast<double>(list.total_symbols() + list.size()) *
      std::log2(static_cast<double>(list.size()) + 2.0)));
  return order;
}

// Bentley–Sedgewick 3-way radix quicksort on (string, depth) with an
// explicit work stack; equal strings tie-break by index.
std::vector<u32> sort_msd(const StringList& list) {
  const std::size_t m = list.size();
  std::vector<u32> order(m);
  for (std::size_t i = 0; i < m; ++i) order[i] = static_cast<u32>(i);
  struct Job {
    std::size_t lo, hi, depth;
  };
  // Symbol at `depth` of string id, with end-of-string < every symbol.
  auto at = [&](u32 id, std::size_t depth) -> u64 {
    const auto v = list.view(id);
    return depth < v.size() ? static_cast<u64>(v[depth]) + 1 : 0;
  };
  std::vector<Job> stack;
  if (m > 1) stack.push_back({0, m, 0});
  u64 work = 0;
  while (!stack.empty()) {
    const Job job = stack.back();
    stack.pop_back();
    const std::size_t len = job.hi - job.lo;
    if (len <= 1) continue;
    if (len <= 16) {
      std::sort(order.begin() + static_cast<std::ptrdiff_t>(job.lo),
                order.begin() + static_cast<std::ptrdiff_t>(job.hi), [&](u32 x, u32 y) {
                  const int c = compare_spans(list.view(x).subspan(std::min<std::size_t>(
                                                  job.depth, list.view(x).size())),
                                              list.view(y).subspan(std::min<std::size_t>(
                                                  job.depth, list.view(y).size())));
                  return c != 0 ? c < 0 : x < y;
                });
      work += len * 8;
      continue;
    }
    const u64 pivot = at(order[job.lo + len / 2], job.depth);
    std::size_t lt = job.lo, i = job.lo, gt = job.hi;
    while (i < gt) {
      const u64 c = at(order[i], job.depth);
      if (c < pivot) {
        std::swap(order[lt++], order[i++]);
      } else if (c > pivot) {
        std::swap(order[i], order[--gt]);
      } else {
        ++i;
      }
    }
    work += len;
    stack.push_back({job.lo, lt, job.depth});
    stack.push_back({gt, job.hi, job.depth});
    if (pivot != 0) {
      stack.push_back({lt, gt, job.depth + 1});
    } else {
      // All strings in [lt, gt) ended; order them by index for determinism.
      std::sort(order.begin() + static_cast<std::ptrdiff_t>(lt),
                order.begin() + static_cast<std::ptrdiff_t>(gt));
    }
  }
  pram::charge(work);
  return order;
}

// --- the paper's parallel algorithm -------------------------------------

struct Level {
  std::vector<u32> data;     // current symbols (dense ranks after level 0)
  std::vector<u32> offsets;  // CSR, size m+1
  std::vector<u32> ids;      // original string index of each current string
};

std::span<const u32> level_view(const Level& lv, std::size_t i) {
  return std::span<const u32>(lv.data).subspan(lv.offsets[i], lv.offsets[i + 1] - lv.offsets[i]);
}

// Parallel comparison sort used on the O(n/log n) residue (the stand-in
// for Cole's mergesort): merge-path merge sort with O(1)-ish span
// comparisons on the reduced strings.
std::vector<u32> base_sort(const Level& lv) {
  std::vector<u32> idx(lv.ids.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<u32>(i);
  prim::parallel_merge_sort(std::span<u32>(idx), [&](u32 x, u32 y) {
    const int c = compare_spans(level_view(lv, x), level_view(lv, y));
    return c != 0 ? c < 0 : lv.ids[x] < lv.ids[y];
  });
  std::vector<u32> sorted_ids(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) sorted_ids[i] = lv.ids[idx[i]];
  pram::charge(lv.data.size() + lv.ids.size());
  return sorted_ids;
}

std::vector<u32> sort_parallel_rec(Level lv, std::size_t residue_threshold) {
  const std::size_t m = lv.ids.size();
  if (m <= 1) return lv.ids;
  if (lv.data.size() <= residue_threshold) return base_sort(lv);

  // Step 1: split unit-length strings from longer ones.
  std::vector<u32> unit_idx, long_idx;
  for (std::size_t i = 0; i < m; ++i) {
    (lv.offsets[i + 1] - lv.offsets[i] == 1 ? unit_idx : long_idx).push_back(static_cast<u32>(i));
  }
  pram::charge(m);

  // Sort units by (symbol, original id) with one integer-sort pass.
  std::vector<u32> sorted_unit_ids;
  if (!unit_idx.empty()) {
    std::vector<u64> keys(unit_idx.size());
    pram::parallel_for(0, unit_idx.size(), [&](std::size_t t) {
      keys[t] = pack_pair(lv.data[lv.offsets[unit_idx[t]]], lv.ids[unit_idx[t]]);
    });
    const std::vector<u32> ord = prim::sort_order_by_key(keys);
    sorted_unit_ids.resize(unit_idx.size());
    pram::parallel_for(0, ord.size(), [&](std::size_t t) {
      sorted_unit_ids[t] = lv.ids[unit_idx[ord[t]]];
    });
  }
  if (long_idx.empty()) return sorted_unit_ids;

  // Remember each long string's first symbol for the final merge, before
  // the symbols are renamed away.
  std::vector<u32> long_first(long_idx.size());
  for (std::size_t t = 0; t < long_idx.size(); ++t) {
    long_first[t] = lv.data[lv.offsets[long_idx[t]]];
  }
  // Step 2: fold each long string into ceil(len/2) ordered pairs; the blank
  // symbol (0 after shifting all real symbols up by 1) precedes everything.
  std::vector<u32> pair_count(long_idx.size());
  for (std::size_t t = 0; t < long_idx.size(); ++t) {
    const u32 len = lv.offsets[long_idx[t] + 1] - lv.offsets[long_idx[t]];
    pair_count[t] = (len + 1) / 2;
  }
  std::vector<u32> new_off(long_idx.size() + 1);
  const u32 total_pairs = prim::exclusive_scan<u32>(pair_count, std::span<u32>(new_off).first(long_idx.size()));
  new_off[long_idx.size()] = total_pairs;
  std::vector<u32> pa(total_pairs), pb(total_pairs);
  pram::parallel_for(0, long_idx.size(), [&](std::size_t t) {
    const u32 beg = lv.offsets[long_idx[t]];
    const u32 len = lv.offsets[long_idx[t] + 1] - beg;
    const u32 base = new_off[t];
    for (u32 q = 0; 2 * q < len; ++q) {
      pa[base + q] = lv.data[beg + 2 * q] + 1;
      pb[base + q] = (2 * q + 1 < len) ? lv.data[beg + 2 * q + 1] + 1 : 0;
    }
  });

  // Step 3: order-preserving dense ranks of the pairs.
  auto ranks = prim::rename_pairs_sorted(pa, pb);

  // Step 4: recurse on the reduced list.
  Level next;
  next.data = std::move(ranks.labels);
  next.offsets = std::move(new_off);
  next.ids.resize(long_idx.size());
  for (std::size_t t = 0; t < long_idx.size(); ++t) next.ids[t] = lv.ids[long_idx[t]];
  std::vector<u32> sorted_long_ids = sort_parallel_rec(std::move(next), residue_threshold);

  // Merge: units and longs are each sorted; a unit with symbol c precedes
  // every long string starting with c (it is a proper prefix).  Look up the
  // first symbol of a string by its id via a sorted (id, symbol) table.
  std::vector<std::pair<u32, u32>> id_first(long_idx.size());
  for (std::size_t t = 0; t < long_idx.size(); ++t) {
    id_first[t] = {lv.ids[long_idx[t]], long_first[t]};
  }
  std::sort(id_first.begin(), id_first.end());
  auto first_sym_of = [&](u32 id) {
    auto it = std::lower_bound(id_first.begin(), id_first.end(), std::pair<u32, u32>{id, 0});
    assert(it != id_first.end() && it->first == id);
    return it->second;
  };
  // Unit symbols in sorted order: recompute similarly.
  std::vector<std::pair<u32, u32>> unit_id_sym(unit_idx.size());
  for (std::size_t t = 0; t < unit_idx.size(); ++t) {
    unit_id_sym[t] = {lv.ids[unit_idx[t]], lv.data[lv.offsets[unit_idx[t]]]};
  }
  std::sort(unit_id_sym.begin(), unit_id_sym.end());
  auto unit_sym_of = [&](u32 id) {
    auto it = std::lower_bound(unit_id_sym.begin(), unit_id_sym.end(), std::pair<u32, u32>{id, 0});
    assert(it != unit_id_sym.end() && it->first == id);
    return it->second;
  };

  std::vector<u32> out;
  out.reserve(m);
  std::size_t ui = 0, li = 0;
  while (ui < sorted_unit_ids.size() && li < sorted_long_ids.size()) {
    const u32 us = unit_sym_of(sorted_unit_ids[ui]);
    const u32 ls = first_sym_of(sorted_long_ids[li]);
    if (us <= ls) {
      out.push_back(sorted_unit_ids[ui++]);
    } else {
      out.push_back(sorted_long_ids[li++]);
    }
  }
  while (ui < sorted_unit_ids.size()) out.push_back(sorted_unit_ids[ui++]);
  while (li < sorted_long_ids.size()) out.push_back(sorted_long_ids[li++]);
  pram::charge(m);
  return out;
}

std::vector<u32> sort_parallel(const StringList& list) {
  Level lv;
  lv.data = list.data;
  lv.offsets = list.offsets;
  if (lv.offsets.empty()) lv.offsets.push_back(0);
  lv.ids.resize(list.size());
  for (std::size_t i = 0; i < lv.ids.size(); ++i) lv.ids[i] = static_cast<u32>(i);
  const double n0 = static_cast<double>(std::max<std::size_t>(2, list.total_symbols()));
  const std::size_t residue =
      std::max<std::size_t>(64, static_cast<std::size_t>(n0 / std::log2(n0)));
  return sort_parallel_rec(std::move(lv), residue);
}

}  // namespace

std::vector<u32> sort_strings(const StringList& list, StringSortStrategy strategy) {
  switch (strategy) {
    case StringSortStrategy::StdSort:
      return sort_std(list);
    case StringSortStrategy::MsdRadix:
      return sort_msd(list);
    case StringSortStrategy::Parallel:
      return sort_parallel(list);
  }
  return sort_std(list);
}

}  // namespace sfcp::strings
