// bench_machine_peak — a tiny STREAM-triad-style probe measuring this
// machine's achievable memory bandwidth, the denominator of the per-phase
// roofline tools/profile_report.py prints.
//
//   ./bench_machine_peak [--n <doubles>] [--reps <k>] [--json <path>]
//
// Kernel: a[i] = b[i] + s * c[i] over three arrays sized well past any LLC
// (default 8 Mi doubles each, 192 MiB total), best-of-k after one untimed
// warm pass.  Bytes are counted the STREAM way: 24 per element (two reads,
// one write; write-allocate traffic is not charged).  With --json the
// result lands in the same JSONL stream as the benches — name
// "machine_peak", n = bytes per pass — plus a one-node profile object, so
// profile_report.py picks the peak up from the file automatically.
//
// Deliberately NOT a google-benchmark target (and named so the bench_*.cpp
// glob skips it): it must stay runnable in seconds inside CI and link only
// the library.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "pram/config.hpp"
#include "pram/parallel_for.hpp"
#include "prof/clock.hpp"
#include "prof/profile.hpp"
#include "util/bench_json.hpp"

int main(int argc, char** argv) {
  sfcp::util::BenchJson json(argc, argv);
  std::size_t n = std::size_t{1} << 23;  // 8 Mi doubles per array
  int reps = 7;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      n = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--n <doubles>] [--reps <k>] [--json <path>]\n",
                   argv[0]);
      return 2;
    }
  }
  if (n < 1024) n = 1024;
  if (reps < 1) reps = 1;

  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const double s = 3.0;
  const sfcp::u64 bytes_per_pass = static_cast<sfcp::u64>(n) * 24;  // STREAM counting

  sfcp::u64 best_ns = ~sfcp::u64{0};
  for (int r = 0; r <= reps; ++r) {  // rep 0 warms (page faults, pool spin-up)
    const sfcp::u64 t0 = sfcp::prof::now_ns();
    sfcp::pram::parallel_for(0, n, [&](std::size_t i) { a[i] = b[i] + s * c[i]; });
    const sfcp::u64 t1 = sfcp::prof::now_ns();
    if (r > 0 && t1 - t0 < best_ns) best_ns = t1 - t0;
  }

  const double best_ms = static_cast<double>(best_ns) / 1e6;
  const double gbps = static_cast<double>(bytes_per_pass) / static_cast<double>(best_ns);
  std::printf("machine peak (STREAM triad): %.2f GB/s  (n=%zu doubles x3, %d threads, "
              "best of %d, %.3f ms/pass, checksum %.1f)\n",
              gbps, n, sfcp::pram::threads(), reps, best_ms, a[n / 2]);

  if (json.enabled()) {
    sfcp::prof::ProfileTree tree;
    tree.phases.push_back(
        {"machine_peak/triad", best_ns, 1, 2 * static_cast<sfcp::u64>(n), bytes_per_pass});
    json.record("machine_peak", bytes_per_pass, "triad", sfcp::pram::threads(), best_ms,
                tree);
  }
  return 0;
}
