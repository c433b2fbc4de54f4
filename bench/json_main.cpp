// Shared main for every google-benchmark target: standard benchmark CLI
// plus `--json <path>`, which appends one {name, n, strategy, threads, ms}
// JSON-lines record per measured run (util/bench_json).  Linked instead of
// benchmark_main so every bench speaks the same record format.
//
// A process-wide prof::Profiler is installed for the whole run: in
// SFCP_PROFILE builds every record also carries the phase profile
// accumulated since the previous record (snapshot + reset per ReportRuns),
// which tools/profile_report.py renders as a per-phase roofline.  In
// default builds the tree is empty and the record shape is unchanged.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "pram/config.hpp"
#include "prof/profile.hpp"
#include "util/bench_json.hpp"

namespace {

sfcp::prof::Profiler g_profiler;

// "BM_Sfcp/euler-jump-level/16384/0" -> name "BM_Sfcp", strategy
// "euler-jump-level", n 16384 (first numeric path segment).
void split_run_name(const std::string& full, std::string& name, std::string& strategy,
                    sfcp::u64& n) {
  name.clear();
  strategy.clear();
  n = 0;
  bool n_set = false;
  std::size_t start = 0;
  bool first = true;
  while (start <= full.size()) {
    std::size_t slash = full.find('/', start);
    if (slash == std::string::npos) slash = full.size();
    const std::string seg = full.substr(start, slash - start);
    if (first) {
      name = seg;
      first = false;
    } else if (!seg.empty() && seg.find_first_not_of("0123456789") == std::string::npos) {
      if (!n_set) {
        n = std::strtoull(seg.c_str(), nullptr, 10);
        n_set = true;
      }
    } else if (!seg.empty()) {
      if (!strategy.empty()) strategy += '/';
      strategy += seg;
    }
    start = slash + 1;
  }
}

class JsonAppendReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonAppendReporter(std::string path) : path_(std::move(path)) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    // One snapshot per report: the tree covers everything this benchmark
    // family ran (warmup iterations included — per-call ns/count stays
    // meaningful, and relative phase shares are what the report reads).
    const sfcp::prof::ProfileTree profile = g_profiler.snapshot();
    g_profiler.reset();
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      std::string name, strategy;
      sfcp::u64 n = 0;
      split_run_name(run.benchmark_name(), name, strategy, n);
      const double iters = run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      const double ms = run.real_accumulated_time / iters * 1e3;
      // run.threads is google-benchmark's own threading (always 1 here);
      // what a record cares about is the PRAM thread budget the solver ran
      // under — the same value the table recorders log.
      sfcp::util::append_bench_record(path_, name, n, strategy, sfcp::pram::threads(), ms,
                                      profile);
    }
  }

 private:
  std::string path_;
};

}  // namespace

int main(int argc, char** argv) {
  sfcp::prof::ScopedProfiler prof_guard(g_profiler);
  const std::string json_path = sfcp::util::consume_json_flag(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (json_path.empty()) {
    benchmark::RunSpecifiedBenchmarks();
  } else {
    JsonAppendReporter reporter(json_path);
    benchmark::RunSpecifiedBenchmarks(&reporter);
  }
  benchmark::Shutdown();
  return 0;
}
