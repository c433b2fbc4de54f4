#include "strings/msp.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "pram/parallel_for.hpp"
#include "prim/compact.hpp"
#include "prim/find_first.hpp"
#include "prim/rename.hpp"
#include "prim/scan.hpp"
#include "strings/period.hpp"

namespace sfcp::strings {

namespace {

// Lexicographic comparison of rotations starting at c1 < c2, examining at
// most `len` characters.  Returns the winning candidate; ties go to c1
// (valid whenever c2 - c1 <= len, by Lemma 3.3).
u32 duel(std::span<const u32> s, u32 c1, u32 c2, std::size_t len) {
  const std::size_t n = s.size();
  const std::size_t lc = std::min(len, n);
  const u32 d = prim::find_first_if(0, lc, [&](std::size_t l) {
    return s[(c1 + l) % n] != s[(c2 + l) % n];
  });
  if (d == kNone) return c1;
  return s[(c1 + d) % n] < s[(c2 + d) % n] ? c1 : c2;
}

}  // namespace

u32 msp_booth(std::span<const u32> s) {
  const std::size_t n = s.size();
  if (n <= 1) return 0;
  // Booth's algorithm on the doubled string with a failure function.
  std::vector<i64> f(2 * n, -1);
  u32 k = 0;
  for (std::size_t j = 1; j < 2 * n; ++j) {
    const u32 sj = s[j % n];
    i64 i = f[j - k - 1];
    while (i != -1 && sj != s[(k + i + 1) % n]) {
      if (sj < s[(k + i + 1) % n]) k = static_cast<u32>(j - i - 1);
      i = f[static_cast<std::size_t>(i)];
    }
    if (sj != s[(k + i + 1) % n]) {
      if (sj < s[k % n]) k = static_cast<u32>(j);
      f[j - k] = -1;
    } else {
      f[j - k] = i + 1;
    }
  }
  pram::charge(4 * n);
  return k % static_cast<u32>(n);
}

PeriodMsp period_and_msp(std::span<const u32> s) {
  const u32 n = static_cast<u32>(s.size());
  if (n == 0) return {};
  // i + k and j + k stay below 2n, so one conditional subtract wraps them.
  const auto at = [&](u32 x) { return s[x < n ? x : x - n]; };
  u32 i = 0, j = 1, k = 0;
  while (i < n && j < n && k < n) {
    const u32 a = at(i + k), b = at(j + k);
    if (a == b) {
      ++k;
      continue;
    }
    if (a > b) {
      i += k + 1;
    } else {
      j += k + 1;
    }
    if (i == j) ++j;
    k = 0;
  }
  pram::charge(2 * static_cast<std::size_t>(n));
  return {k == n ? (i > j ? i - j : j - i) : n, std::min(i, j)};
}

u32 msp_duval(std::span<const u32> s) {
  const std::size_t n = s.size();
  if (n <= 1) return 0;
  auto at = [&](std::size_t i) { return s[i % n]; };
  std::size_t a = 0;
  for (std::size_t b = 1; b < n; ++b) {
    for (std::size_t k = 0; k < n; ++k) {
      if (a + k == b || at(a + k) < at(b + k)) {
        if (k > 1) b += k - 1;
        break;
      }
      if (at(a + k) > at(b + k)) {
        a = b;
        break;
      }
    }
  }
  pram::charge(2 * n);
  return static_cast<u32>(a);
}

u32 msp_brute(std::span<const u32> s) {
  const std::size_t n = s.size();
  if (n <= 1) return 0;
  u32 best = 0;
  for (u32 c = 1; c < n; ++c) {
    for (std::size_t l = 0; l < n; ++l) {
      const u32 x = s[(c + l) % n];
      const u32 y = s[(best + l) % n];
      if (x != y) {
        if (x < y) best = c;
        break;
      }
    }
  }
  return best;
}

u32 msp_simple(std::span<const u32> s) {
  const std::size_t n = s.size();
  if (n <= 1) return 0;
  // Conceptually pad n to a power of two N; blocks of size 1 hold their own
  // index as candidate, blocks beyond n are empty (kNone).
  const std::size_t N = std::bit_ceil(n);
  std::vector<u32> cand(N);
  pram::parallel_for(0, N, [&](std::size_t i) {
    cand[i] = i < n ? static_cast<u32>(i) : kNone;
  });
  std::vector<u32> next_cand(N / 2);
  for (std::size_t width = 1; width < N; width <<= 1) {
    const std::size_t pairs = N / (2 * width);
    const std::size_t compare_len = 2 * width;
    const bool outer_parallel = pairs >= static_cast<std::size_t>(pram::threads());
    auto merge_one = [&](std::size_t t) {
      const u32 c1 = cand[2 * t];
      const u32 c2 = cand[2 * t + 1];
      if (c1 == kNone) {
        next_cand[t] = c2;
      } else if (c2 == kNone) {
        next_cand[t] = c1;
      } else {
        next_cand[t] = duel(s, c1, c2, compare_len);
      }
    };
    if (outer_parallel) {
      pram::parallel_for(0, pairs, merge_one);
    } else {
      for (std::size_t t = 0; t < pairs; ++t) merge_one(t);  // inner duel parallelizes
    }
    cand.assign(next_cand.begin(), next_cand.begin() + static_cast<std::ptrdiff_t>(pairs));
  }
  assert(cand.size() == 1 && cand[0] != kNone);
  return cand[0];
}

namespace {

struct Reduced {
  std::vector<u32> sym;  ///< current circular string (rank symbols)
  std::vector<u32> pos;  ///< original position of each current symbol
};

// One fold of Algorithm "efficient m.s.p." steps 1-3.  Returns true and the
// answer via `out` when a single candidate remains.
bool fold_once(Reduced& r, u32& out) {
  const std::size_t n = r.sym.size();
  const u32 m = prim::reduce_min<u32>(r.sym);
  const std::vector<u32> marks = prim::pack_index_if(n, [&](std::size_t j) {
    return r.sym[j] == m && r.sym[(j + n - 1) % n] != m;
  });
  if (marks.empty()) {
    // All symbols equal: every rotation is identical; smallest original
    // position wins.  (Unreachable for non-repeating input; kept for
    // robustness.)
    out = prim::reduce_min<u32>(r.pos);
    return true;
  }
  if (marks.size() == 1) {
    out = r.pos[marks[0]];
    return true;
  }
  const std::size_t k = marks.size();
  // Group t spans marks[t] .. marks[t+1]-1 (circularly); length >= 2.
  std::vector<u32> group_pairs(k);
  pram::parallel_for(0, k, [&](std::size_t t) {
    const u32 g = static_cast<u32>((marks[(t + 1) % k] + n - marks[t]) % n);
    group_pairs[t] = (g + 1) / 2;
  });
  std::vector<u32> off(k);
  const u32 total = prim::exclusive_scan<u32>(group_pairs, off);
  std::vector<u32> a(total), b(total), newpos(total);
  pram::parallel_for(0, k, [&](std::size_t t) {
    const u32 st = marks[t];
    const u32 g = static_cast<u32>((marks[(t + 1) % k] + n - st) % n);
    const u32 base = off[t];
    for (u32 q = 0; 2 * q < g; ++q) {
      const std::size_t i1 = (st + 2 * q) % n;
      a[base + q] = r.sym[i1];
      b[base + q] = (2 * q + 1 < g) ? r.sym[(st + 2 * q + 1) % n] : m;
      newpos[base + q] = r.pos[i1];
    }
  });
  // Order-preserving dense ranks of the pairs (step 3); this must be the
  // sorted renaming or lexicographic order would not survive.
  auto ranks = prim::rename_pairs_sorted(a, b);
  r.sym = std::move(ranks.labels);
  r.pos = std::move(newpos);
  return false;
}

}  // namespace

u32 msp_efficient(std::span<const u32> s) {
  const std::size_t n0 = s.size();
  if (n0 <= 1) return 0;
  Reduced r;
  r.sym.assign(s.begin(), s.end());
  r.pos.resize(n0);
  pram::parallel_for(0, n0, [&](std::size_t i) { r.pos[i] = static_cast<u32>(i); });
  const double lg = std::log2(static_cast<double>(n0) + 2.0);
  const std::size_t threshold =
      std::max<std::size_t>(64, static_cast<std::size_t>(static_cast<double>(n0) / lg));
  u32 answer = kNone;
  while (r.sym.size() > threshold) {
    if (fold_once(r, answer)) return answer;
  }
  const u32 j = msp_simple(r.sym);
  return r.pos[j];
}

u32 minimal_starting_point(std::span<const u32> s, MspStrategy strategy) {
  const std::size_t n = s.size();
  if (n <= 1) return 0;
  switch (strategy) {
    case MspStrategy::Brute:
      return msp_brute(s);
    case MspStrategy::Booth:
      return msp_booth(s);
    case MspStrategy::Duval:
      return msp_duval(s);
    case MspStrategy::Simple:
    case MspStrategy::Efficient: {
      // The parallel algorithms assume a non-repeating string; reduce to the
      // smallest repeating prefix first (its m.s.p. is the overall m.s.p.).
      const u32 p = smallest_period_seq(s);
      std::span<const u32> prefix = s.subspan(0, p);
      return strategy == MspStrategy::Simple ? msp_simple(prefix) : msp_efficient(prefix);
    }
  }
  return msp_booth(s);
}

std::vector<u32> canonical_rotation(std::span<const u32> s, MspStrategy strategy) {
  const std::size_t n = s.size();
  std::vector<u32> out(n);
  if (n == 0) return out;
  const u32 j0 = minimal_starting_point(s, strategy);
  pram::parallel_for(0, n, [&](std::size_t i) { out[i] = s[(j0 + i) % n]; });
  return out;
}

}  // namespace sfcp::strings
