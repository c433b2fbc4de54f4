#include "util/bench_json.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace sfcp::util {

namespace {

void append_escaped(std::ostream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default: os << c;
    }
  }
}

}  // namespace

void append_bench_record(const std::string& path, const std::string& name, u64 n,
                         const std::string& strategy, int threads, double ms) {
  append_bench_record(path, name, n, strategy, threads, ms, prof::ProfileTree{});
}

void append_bench_record(const std::string& path, const std::string& name, u64 n,
                         const std::string& strategy, int threads, double ms,
                         const prof::ProfileTree& profile) {
  if (path.empty()) return;
  std::ofstream os(path, std::ios::app);
  if (!os) throw std::runtime_error("append_bench_record: cannot open " + path);
  os << "{\"name\":\"";
  append_escaped(os, name);
  os << "\",\"n\":" << n << ",\"strategy\":\"";
  append_escaped(os, strategy);
  os << "\",\"threads\":" << threads << ",\"ms\":" << ms;
  if (!profile.empty()) {
    os << ",\"profile\":{";
    bool first = true;
    for (const prof::PhaseNode& p : profile.phases) {
      if (!first) os << ',';
      first = false;
      os << '"';
      append_escaped(os, p.path);
      os << "\":{\"ns\":" << p.ns << ",\"count\":" << p.count << ",\"flops\":" << p.flops
         << ",\"bytes\":" << p.bytes << '}';
    }
    os << '}';
  }
  os << "}\n";
}

std::string consume_json_flag(int& argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        // Silently dropping records the user asked for is worse than dying.
        std::fprintf(stderr, "error: --json requires a path argument\n");
        std::exit(2);
      }
      path = argv[i + 1];
      ++i;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      path = argv[i] + 7;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return path;
}

}  // namespace sfcp::util
