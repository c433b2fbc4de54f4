#pragma once
// Machine-readable benchmark records: every bench/table target accepts
// `--json <path>` (or `--json=<path>`) and appends one JSON object per
// measured row to that file (JSON Lines):
//
//   {"name":"e1_sfcp","n":16384,"strategy":"parallel","threads":8,"ms":12.3}
//
// When the run carried a phase profile (SFCP_PROFILE builds with a
// profiler installed), the record additionally gets a flattened `profile`
// object keyed by scope path:
//
//   ...,"profile":{"solve/tree_label":{"ns":1234,"count":8,"flops":0,
//   "bytes":4096},...}}
//
// Table mains use BenchJson; google-benchmark targets get the flag from the
// shared bench/json_main.cpp reporter.  tools/profile_report.py renders the
// profile objects as a roofline table; tools/bench_diff.py compares two
// runs.  End-to-end performance is perfbench's job, not these records'.

#include <string>
#include <utility>

#include "pram/types.hpp"
#include "prof/profile.hpp"

namespace sfcp::util {

/// Appends one record to `path` (no-op when path is empty).  Throws
/// std::runtime_error when the file cannot be opened.
void append_bench_record(const std::string& path, const std::string& name, u64 n,
                         const std::string& strategy, int threads, double ms);

/// Same, with the run's phase profile flattened into a `profile` object
/// (omitted entirely when the tree is empty, keeping the classic shape).
void append_bench_record(const std::string& path, const std::string& name, u64 n,
                         const std::string& strategy, int threads, double ms,
                         const prof::ProfileTree& profile);

/// Extracts `--json <path>` / `--json=<path>` from argv (removing the
/// consumed arguments and updating argc); returns "" when absent.  A bare
/// trailing `--json` with no path exits with a usage error rather than
/// silently dropping the records the user asked for.
std::string consume_json_flag(int& argc, char** argv);

/// Argv-driven recorder for the standalone table printers.
class BenchJson {
 public:
  BenchJson(int& argc, char** argv) : path_(consume_json_flag(argc, argv)) {}
  explicit BenchJson(std::string path) : path_(std::move(path)) {}

  bool enabled() const noexcept { return !path_.empty(); }
  const std::string& path() const noexcept { return path_; }

  void record(const std::string& name, u64 n, const std::string& strategy, int threads,
              double ms) const {
    if (enabled()) append_bench_record(path_, name, n, strategy, threads, ms);
  }

  void record(const std::string& name, u64 n, const std::string& strategy, int threads,
              double ms, const prof::ProfileTree& profile) const {
    if (enabled()) append_bench_record(path_, name, n, strategy, threads, ms, profile);
  }

 private:
  std::string path_;
};

}  // namespace sfcp::util
