// solve_cold — the paper's algorithm on its own.
//
// One reusable core::Solver (parallel options, 2 threads) does from-scratch
// solves of two 2^20-node instances generated from the seed: a tree-heavy
// random_function and a cycle-heavy permutation (the disjoint union of 16
// random_permutation pieces).  One request solves the tree-heavy instance
// and then the cycle-heavy one, so the per-request latency is unimodal.
// After each solve the benchmark reads the fresh result the way a caller
// would: class_of and class_members queries on its PartitionView.  Peak RSS
// is about 250 MB, past the 105 MB L3 of the reference machine.  Nothing
// here touches serve, inc or fleet.
//
// Two solver threads on a 4-vCPU machine: every round of the solve ends at
// a barrier, so with one thread per vCPU any other runnable thread on the
// host stalls the whole team (one busy neighbour thread made a 4-thread
// cycle-heavy solve 3x slower, a 2-thread one under 1% slower).
//
// Correctness: every solve's labels must equal the Options::sequential()
// labels of the same instance, computed before timing starts.
//
// Traced run: half the time repeats the untraced requests (the baseline),
// half replays core::solve's pipeline call by call under spans, with a
// pram::Metrics sink, and byte-compares the replay with Solver::solve.

#include <algorithm>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "core/solver.hpp"
#include "graph/cycle_detect.hpp"
#include "graph/cycle_structure.hpp"
#include "prim/rename.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace perfbench {
namespace {

using namespace sfcp;

constexpr std::size_t kNodes = std::size_t{1} << 20;
constexpr int kThreads = 2;
constexpr int kSetups = 5;

struct Inputs {
  graph::Instance inst[2];            ///< [0] tree-heavy, [1] cycle-heavy
  std::vector<u32> expected[2];       ///< Options::sequential() labels
  double sequential_ms[2] = {0, 0};
};

/// A cycle-heavy permutation of kNodes nodes: the disjoint union of
/// kPermParts random permutations.  One random permutation's solve time
/// hangs on its few largest cycles; the union averages them, so the cost
/// varies less from seed to seed.
graph::Instance cycle_heavy(util::Rng& rng) {
  constexpr std::size_t kPermParts = 16;
  constexpr std::size_t part = kNodes / kPermParts;
  graph::Instance inst;
  for (std::size_t p = 0; p < kPermParts; ++p) {
    const graph::Instance piece = util::random_permutation(part, 2, rng);
    const auto offset = static_cast<u32>(p * part);
    for (const u32 y : piece.f) inst.f.push_back(offset + y);
    inst.b.insert(inst.b.end(), piece.b.begin(), piece.b.end());
  }
  return inst;
}

Inputs make_inputs(u64 seed) {
  Inputs in;
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x501d);
  in.inst[0] = util::random_function(kNodes, 4, rng);
  in.inst[1] = cycle_heavy(rng);
  for (int k = 0; k < 2; ++k) {
    const i64 t0 = now_ns();
    in.expected[k] = core::solve(in.inst[k], core::Options::sequential()).q;
    in.sequential_ms[k] = static_cast<double>(now_ns() - t0) * 1e-6;
  }
  return in;
}

pram::ExecutionContext solver_context(pram::Metrics* metrics = nullptr) {
  return pram::ExecutionContext{}.with_threads(kThreads).with_metrics(metrics);
}

/// The read side of a fresh result: enumerate every class with its members,
/// as a caller exporting the partition does (the view builds its members
/// index lazily on this first use).  Point queries were tried first, but at
/// a tenth of a microsecond their timing follows the host's cache pressure
/// more than the code.  Returns the microseconds taken.
double read_result(const core::PartitionView& v, u64& members) {
  const i64 t0 = now_ns();
  for (const auto& cls : v.classes()) members += cls.members.size();
  return static_cast<double>(now_ns() - t0) * 1e-3;
}

struct Phase {
  std::vector<double> request_us;  ///< tree + cycle solve of one request
  std::vector<double> solve_ms[2];
  std::vector<double> read_us;     ///< reading both results of one request
  u64 members_read = 0;
};

/// Untraced requests through Solver::solve until `seconds` have passed.
void solve_requests(core::Solver& solver, const Inputs& in, double seconds, Phase& ph,
                    Report& report, std::vector<u32>* last_labels) {
  const i64 start = now_ns();
  while (seconds_since(start) < seconds) {
    double request = 0, read = 0;
    for (int k = 0; k < 2; ++k) {
      const i64 t0 = now_ns();
      core::Result r = solver.solve(in.inst[k]);
      const double us = static_cast<double>(now_ns() - t0) * 1e-3;
      request += us;
      ph.solve_ms[k].push_back(us * 1e-3);
      report.attempt();
      if (r.q != in.expected[k]) report.fail("solve_cold: labels differ from the sequential solve");
      if (last_labels != nullptr) last_labels[k] = r.q;
      const u64 members_before = ph.members_read;
      read += read_result(std::move(r).view(), ph.members_read);
      if (ph.members_read - members_before != in.inst[k].size()) {
        report.fail("solve_cold: the classes of a result do not cover every node");
      }
    }
    ph.request_us.push_back(request);
    ph.read_us.push_back(read);
  }
}

std::size_t workspace_bytes(const core::SolveWorkspace& ws) {
  auto b = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  return b(ws.on_cycle) + b(ws.cs.on_cycle) + b(ws.cs.leader) + b(ws.cs.rank) +
         b(ws.cs.length) + b(ws.cs.cycle_nodes) + b(ws.cs.cycle_offset) + b(ws.cs.cycle_of) +
         b(ws.cl.q) + b(ws.cl.period) + b(ws.cl.msp) + b(ws.cl.class_id) + b(ws.tl.q);
}

constexpr int kStages = 5;
constexpr const char* kStageSpan[kStages] = {"graph.cycle_detect", "graph.cycle_structure",
                                             "core.cycle_label", "core.tree_label",
                                             "prim.rename"};
constexpr const char* kStageMetric[kStages] = {"graph.cycle_detect_ms",
                                               "graph.cycle_structure_ms", "core.cycle_label_ms",
                                               "core.tree_label_ms", "prim.rename_ms"};
constexpr const char* kStageGbps[kStages] = {"graph.cycle_detect_gbps",
                                             "graph.cycle_structure_gbps",
                                             "core.cycle_label_gbps", "core.tree_label_gbps",
                                             "prim.rename_gbps"};

/// Bytes each stage is computed to move — the same per-stage formulas the
/// library's phase profiler charges (labelled "computed", not measured).
double computed_bytes(int stage, std::size_t n, std::size_t cycle_nodes) {
  static constexpr double kPerNode[kStages] = {8, 16, 8, 16, 8};
  return kPerNode[stage] * static_cast<double>(stage == 2 ? cycle_nodes : n);
}

/// core::solve's pipeline, one public call per span.
std::vector<u32> replay_solve(const graph::Instance& inst, const core::Options& opt,
                              core::SolveWorkspace& ws, double stage_ms[kStages]) {
  Span whole("core.solve");
  auto stage = [&](int s, auto&& call) {
    Span span(kStageSpan[s]);
    const i64 t0 = now_ns();
    call();
    stage_ms[s] += static_cast<double>(now_ns() - t0) * 1e-6;
  };
  {
    Span v("graph.validate");
    graph::validate(inst);
  }
  stage(0, [&] { graph::find_cycle_nodes_into(inst.f, opt.cycle_detect, ws.on_cycle); });
  stage(1, [&] {
    graph::cycle_structure_with_flags_into(inst.f, ws.on_cycle, opt.cycle_structure, ws.cs);
  });
  stage(2, [&] { core::label_cycles_into(inst, ws.cs, opt.cycle_labeling, ws.cl); });
  stage(3, [&] { core::label_trees_into(inst, ws.cs, ws.cl, opt.tree_labeling, ws.tl); });
  std::vector<u32> labels;
  stage(4, [&] { labels = prim::canonicalize_labels(ws.tl.q).labels; });
  return labels;
}

/// STREAM triad over three arrays totalling more than 4x the L3; median
/// GB/s of five timed passes (24 bytes per element).
double triad_gbps() {
  const std::size_t n = std::size_t{19} << 20;  // 3 x 152 MiB
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  std::vector<double> gbps;
  for (int rep = 0; rep <= 5; ++rep) {
    const i64 t0 = now_ns();
#pragma omp parallel for num_threads(kThreads) schedule(static)
    for (long long i = 0; i < static_cast<long long>(n); ++i) a[i] = b[i] + 3.0 * c[i];
    const double ns = static_cast<double>(now_ns() - t0);
    if (rep > 0) gbps.push_back(24.0 * static_cast<double>(n) / ns);
  }
  if (a[n / 2] != 7.0) std::cerr << "perfbench: triad checksum off\n";
  return median(gbps);
}

void traced_run(const Args& args, const Inputs& in, core::Solver& solver, Report& report) {
  // Untraced baseline for the overhead figure.
  Phase base;
  std::vector<u32> solver_labels[2];
  solve_requests(solver, in, args.seconds / 2, base, report, solver_labels);

  // Traced replay of the same requests.
  pram::Metrics metrics;
  const pram::ExecutionContext ctx = solver_context(&metrics);
  const core::Options opt = core::Options::parallel();
  core::SolveWorkspace ws;
  std::vector<double> request_us, stage_pair_ms[kStages], stage_pair_gbps[kStages];
  double ops_per_node = 0, rounds = 0, sort_per_node = 0;
  std::size_t ws_bytes = 0;
  Tracer::get().set_enabled(true);
  const i64 start = now_ns();
  while (seconds_since(start) < args.seconds / 2 || request_us.empty()) {
    double stage_ms[kStages] = {0, 0, 0, 0, 0};
    double bytes[kStages] = {0, 0, 0, 0, 0};
    Span request("bench.request");
    const i64 t0 = now_ns();
    for (int k = 0; k < 2; ++k) {
      metrics.reset();
      std::vector<u32> labels;
      {
        pram::ScopedContext guard(ctx);
        labels = replay_solve(in.inst[k], opt, ws, stage_ms);
      }
      report.attempt();
      if (labels != solver_labels[k]) report.fail("solve_cold: pipeline replay differs from Solver::solve");
      pram::MetricsSnapshot snap;
      {
        Span m("pram.metrics_snapshot");
        snap = metrics.snapshot();
      }
      if (k == 0) {  // the counts the tree rate depends on
        const double n = static_cast<double>(in.inst[k].size());
        ops_per_node = static_cast<double>(snap.operations) / n;
        rounds = static_cast<double>(snap.rounds);
        sort_per_node = static_cast<double>(snap.sort_ops) / n;
      }
      for (int s = 0; s < kStages; ++s) {
        bytes[s] += computed_bytes(s, in.inst[k].size(), ws.cs.cycle_nodes.size());
      }
      ws_bytes = std::max(ws_bytes, workspace_bytes(ws));
    }
    request_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    for (int s = 0; s < kStages; ++s) {
      stage_pair_ms[s].push_back(stage_ms[s]);
      stage_pair_gbps[s].push_back(bytes[s] / (stage_ms[s] * 1e6));
    }
  }
  Tracer::get().set_enabled(false);

  for (int s = 0; s < kStages; ++s) {
    report.add(kStageMetric[s], median(stage_pair_ms[s]), "ms");
    report.add(kStageGbps[s], median(stage_pair_gbps[s]), "GB/s");
  }
  report.add("pram.ops_per_node", ops_per_node, "count");
  report.add("pram.rounds", rounds, "count");
  report.add("pram.sort_ops_per_node", sort_per_node, "count");
  report.add("core.workspace_bytes", static_cast<double>(ws_bytes), "bytes");
  report.add("core.sequential_solve_ms", in.sequential_ms[0] + in.sequential_ms[1], "ms");
  report.add("core.tree_mnodes_per_s",
             static_cast<double>(kNodes) / (median(base.solve_ms[0]) * 1e3), "Mnode/s");
  report.add("core.cycle_mnodes_per_s",
             static_cast<double>(kNodes) / (median(base.solve_ms[1]) * 1e3), "Mnode/s");
  const double traced = median(request_us), untraced = median(base.request_us);
  report.add("trace.overhead_pct", (traced / untraced - 1.0) * 100.0, "%");
  report.add("pram.triad_gbps", triad_gbps(), "GB/s");
}

}  // namespace

void run_solve_cold(const Args& args, Report& report) {
  const Inputs in = make_inputs(args.seed);

  // Set-up: a fresh Solver and its first (workspace-allocating) solve,
  // repeated; the last solver serves the timed requests.
  std::vector<double> setup_s;
  core::Solver solver(core::Options::parallel(), solver_context());
  for (int i = 0; i < kSetups; ++i) {
    const i64 t0 = now_ns();
    solver = core::Solver(core::Options::parallel(), solver_context());
    report.attempt();
    if (solver.solve(in.inst[0]).q != in.expected[0]) report.fail("solve_cold: set-up solve differs");
    setup_s.push_back(seconds_since(t0));
  }

  if (args.trace) {
    traced_run(args, in, solver, report);
    return;
  }

  Phase ph;
  solve_requests(solver, in, args.seconds, ph, report, nullptr);
  report.add("setup_s", median(setup_s), "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  // Nodes of one request over its median time: a burst of host noise moves
  // a few requests, not the rate.
  const double request_us = median(ph.request_us);
  report.add("throughput_per_s", 2.0 * static_cast<double>(kNodes) / (request_us * 1e-6), "1/s");
  report.add("write_p50_us", request_us, "us");
  report.add("read_p50_us", median(ph.read_us), "us");
  std::cerr << "solve_cold: " << ph.request_us.size() << " requests of 2 x " << kNodes
            << " nodes, tree " << median(ph.solve_ms[0]) << " ms, cycle "
            << median(ph.solve_ms[1]) << " ms per solve; reads enumerated " << ph.members_read
            << " members; sequential " << in.sequential_ms[0] << " + " << in.sequential_ms[1]
            << " ms\n";
}

}  // namespace perfbench
