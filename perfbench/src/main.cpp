// sfcp_perfbench — the end-to-end benchmark's measuring program.
//
//   sfcp_perfbench --workload <solve_cold|serve_mixed|fleet_zipf> --seed <n>
//                  --seconds <s> --trace <0|1> [--work-dir <dir>]
//                  [--serve-edit-rate r] [--serve-read-rate r]
//                  [--fleet-edit-rate r] [--fleet-view-rate r]
//
// Prints a human summary on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// With --trace 1 the span dump is written to <work-dir>/spans.jsonl.
// perfbench/run.py builds this program and turns its output into the
// benchmark's result line.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common.hpp"

namespace perfbench {

void Report::add(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::fail(std::string_view why) {
  correct_ = false;
  ++failed_;
  std::cerr << "perfbench: MISMATCH: " << why << "\n";
}

std::string Report::json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct_ ? "true" : "false") << ", \"attempted\": " << attempted_
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : -1.0;
    os << (i ? ", " : "") << '"' << metrics_[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double peak_rss_mb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

u64 Tracer::open(std::string_view name) {
  SpanRecord r;
  r.name = std::string(name);
  r.id = next_id_++;
  r.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  r.start_ns = now_ns();
  open_.push_back(spans_.size());
  spans_.push_back(std::move(r));
  return spans_.back().id;
}

void Tracer::close(u64 id) {
  // Spans are RAII scopes, so the innermost open span is the one closing.
  if (open_.empty() || spans_[open_.back()].id != id) return;
  spans_[open_.back()].end_ns = now_ns();
  open_.pop_back();
}

void Tracer::dump(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw std::runtime_error("perfbench: cannot write span dump " + path);
  for (const SpanRecord& s : spans_) {
    if (s.end_ns == 0) continue;
    os << "{\"name\": \"" << s.name << "\", \"id\": " << s.id << ", \"parent\": " << s.parent
       << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns << "}\n";
  }
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "sfcp_perfbench: " << why
            << "\nusage: sfcp_perfbench --workload <solve_cold|serve_mixed|fleet_zipf> --seed <n>"
               " --seconds <s> --trace <0|1> [--work-dir <dir>] [--serve-edit-rate r]"
               " [--serve-read-rate r] [--fleet-edit-rate r] [--fleet-view-rate r]\n";
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") a.seed = std::stoull(val);
      else if (key == "--seconds") a.seconds = std::stod(val);
      else if (key == "--trace") a.trace = std::stoi(val) != 0;
      else if (key == "--work-dir") a.work_dir = val;
      else if (key == "--serve-edit-rate") a.serve_edit_rate = std::stod(val);
      else if (key == "--serve-read-rate") a.serve_read_rate = std::stod(val);
      else if (key == "--fleet-edit-rate") a.fleet_edit_rate = std::stod(val);
      else if (key == "--fleet-view-rate") a.fleet_view_rate = std::stod(val);
      else usage("unknown flag " + key);
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  perfbench::Report report;
  try {
    std::filesystem::create_directories(args.work_dir);
    if (args.workload == "solve_cold") {
      perfbench::run_solve_cold(args, report);
    } else if (args.workload == "serve_mixed") {
      perfbench::run_serve_mixed(args, report);
    } else if (args.workload == "fleet_zipf") {
      perfbench::run_fleet_zipf(args, report);
    } else {
      usage("unknown workload " + args.workload);
    }
    if (args.trace) {
      perfbench::Tracer::get().dump(args.work_dir + "/spans.jsonl");
    }
  } catch (const std::exception& e) {
    std::cerr << "sfcp_perfbench: error: " << e.what() << "\n";
    return 1;
  }
  std::cout << report.json() << std::endl;
  return report.correct() ? 0 : 1;
}
