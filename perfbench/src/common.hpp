#pragma once
// Shared pieces of the end-to-end benchmark: command-line arguments, the
// report every workload fills, timing and percentile helpers, and the
// in-memory span recorder of traced runs.
//
// Spans are recorded by the benchmark's own code around its calls into the
// library's public functions (name "<layer>.<call>", id, parent id, start,
// end).  They stay in memory and are written out once, at exit; the
// self-time per layer is computed from that dump by perfbench/spans.py.
// Only the benchmark's driving thread records spans.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using i64 = std::int64_t;
using u64 = std::uint64_t;

inline i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(i64 start_ns) { return static_cast<double>(now_ns() - start_ns) * 1e-9; }

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";  ///< journals and span dumps live here
  // Fixed open-loop rates (per second), set in BENCHMARK.json's command.
  double serve_edit_rate = 0.0;
  double serve_read_rate = 0.0;
  double fleet_edit_rate = 0.0;
  double fleet_view_rate = 0.0;
};

/// What one workload run reports: metrics by name with their unit, the
/// operation counts, and whether every output checked out.
class Report {
 public:
  void add(std::string name, double value, std::string unit);
  /// Counts one failed (or mismatched) operation and marks the run incorrect.
  void fail(std::string_view why);
  void attempt(u64 n = 1) { attempted_ += n; }
  bool correct() const noexcept { return correct_; }
  /// The single JSON line the runner parses.
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  u64 attempted_ = 0;
  u64 failed_ = 0;
  bool correct_ = true;
};

/// Nearest-rank quantile (q in [0, 1]) of `v`; sorts `v`.  Empty input is 0.
double quantile(std::vector<double>& v, double q);

/// Median of `v` (sorts `v`).
inline double median(std::vector<double>& v) { return quantile(v, 0.5); }

/// Peak resident set size of this process, in MB (getrusage).
double peak_rss_mb();

// ---- tracing ----------------------------------------------------------------

struct SpanRecord {
  std::string name;
  u64 id = 0;
  u64 parent = 0;  ///< 0 = root
  i64 start_ns = 0;
  i64 end_ns = 0;
};

/// Process-wide span store.  Disabled by default: a disabled Span costs one
/// branch, which is how traced and untraced runs share code.
class Tracer {
 public:
  static Tracer& get();
  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  u64 open(std::string_view name);
  void close(u64 id);
  /// Writes every closed span as one JSON object per line.
  void dump(const std::string& path) const;

 private:
  bool enabled_ = false;
  u64 next_id_ = 1;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;  ///< stack of indices into spans_
};

/// RAII span around one call into a layer.  Nested spans become children.
class Span {
 public:
  explicit Span(std::string_view name)
      : id_(Tracer::get().enabled() ? Tracer::get().open(name) : 0) {}
  ~Span() {
    if (id_ != 0) Tracer::get().close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  u64 id_;
};

/// Times a callable in microseconds, inside a span of the given name.
template <class F>
double timed_us(std::string_view span_name, F&& f) {
  Span s(span_name);
  const i64 t0 = now_ns();
  f();
  return static_cast<double>(now_ns() - t0) * 1e-3;
}

// ---- workloads ----------------------------------------------------------------

void run_solve_cold(const Args& args, Report& report);
void run_serve_mixed(const Args& args, Report& report);
void run_fleet_zipf(const Args& args, Report& report);

}  // namespace perfbench
