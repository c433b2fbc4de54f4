// serve_mixed — reads and writes sharing one durable server.
//
// A serve::Server (journal fsync=epoch, 2-lane pool) runs an "incremental"
// engine over a 2^20-node random_function and serves loopback TCP.  The
// generator (this thread) drives ten rounds of two phases each, and every
// end-to-end figure is the median over rounds:
//   * closed loop, half a round: one writer pipelines 64-edit EDIT
//     frames, 32 in flight, of localized-hotspot edits — capacity;
//   * open loop, the other half: the writer sends EDIT frames at --serve-edit-rate
//     edits/s while two reader connections send VIEW / CLASSOF / MEMBERS at
//     --serve-read-rate reads/s in total; each request is timed from its
//     due time.
// Apart from the set-up solve, core solves are rare: the edits are
// leaf-local, so the engine repairs, and rebuilds only to compact its label
// space after about 3n minted labels (a few million edits).
//
// Correctness: EDITED epochs never go backwards and acknowledge the whole
// frame, and the final LABELS frame must byte-equal a fresh core::Solver
// solve of the generator's own edited copy of the instance.
//
// Traced run: closed loop untraced and traced (the overhead figure), the
// open loop for the server's STATS counters, then an in-process replay of
// the same edit schedule at the measured edits per epoch that times the
// journal, engine, view and codec calls one by one.

#include <filesystem>
#include <iostream>
#include <memory>
#include <span>
#include <unordered_map>

#include "common.hpp"
#include "engine.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"
#include "wire_load.hpp"

namespace perfbench {
namespace {

using namespace sfcp;
using serve::Frame;
using serve::FrameType;

constexpr std::size_t kNodes = std::size_t{1} << 20;
constexpr u32 kLabels = 4;
constexpr u32 kEditLabels = 6;
constexpr std::size_t kFrameEdits = 64;
constexpr std::size_t kWindow = 32;
constexpr int kReaders = 2;
constexpr int kSetups = 3;
constexpr int kRounds = 10;       // closed + open loop pairs per run
constexpr int kThreads = 2;       // engine solver budget and server pool width
constexpr std::size_t kStreamEdits = std::size_t{8} << 20;

enum Kind { kEditReq = 0, kViewReq = 1, kClassReq = 2, kMembersReq = 3 };

std::unique_ptr<serve::Server> make_server(const graph::Instance& inst,
                                           const std::filesystem::path& dir) {
  serve::ServerOptions opt;
  opt.journal_path = (dir / "serve.wal").string();
  opt.fsync = serve::FsyncPolicy::Epoch;
  opt.pool_threads = kThreads;
  return std::make_unique<serve::Server>(
      engines().make("incremental", inst, core::Options::parallel(),
                     pram::ExecutionContext{}.with_threads(kThreads)),
      opt);
}

/// Generator state shared by both phases: the edit stream and its cursor,
/// the writer's ack checks, and the latency samples.
struct Load {
  const std::vector<inc::Edit>* stream = nullptr;
  std::size_t cursor = 0;  ///< edits sent so far
  std::size_t limit = 0;   ///< edits the current phase may reach
  u64 last_epoch = 0;
  u64 acked_edits = 0;
  std::vector<double> edit_us, read_us;
  Report* report = nullptr;

  std::span<const inc::Edit> next_frame() {
    const auto frame = std::span(*stream).subspan(cursor, kFrameEdits);
    cursor += kFrameEdits;
    return frame;
  }
  bool exhausted() const { return cursor + kFrameEdits > limit; }

  void on_response(const Frame& f, const Pending& p, bool record) {
    const double us = latency_us(p);
    if (f.type == FrameType::kError) {
      report->fail("serve_mixed: server error: " + serve::decode_error(f.payload));
      (p.kind == kEditReq ? edit_us : read_us).push_back(std::numeric_limits<double>::infinity());
      return;
    }
    if (p.kind == kEditReq) {
      serve::PayloadReader r(f.payload);
      const u64 epoch = r.get_u64("edited epoch");
      const u32 accepted = r.get_u32("edited count");
      if (f.type != FrameType::kEdited || accepted != kFrameEdits) {
        report->fail("serve_mixed: malformed EDITED ack");
      }
      if (epoch < last_epoch) report->fail("serve_mixed: EDITED epoch went backwards");
      last_epoch = epoch;
      acked_edits += accepted;
      if (record) edit_us.push_back(us);
      return;
    }
    const FrameType want = p.kind == kViewReq    ? FrameType::kViewInfo
                           : p.kind == kClassReq ? FrameType::kClass
                                                 : FrameType::kMembersData;
    if (f.type != want) report->fail("serve_mixed: read answered with the wrong frame");
    if (record) read_us.push_back(us);
  }
};

/// Closed loop: kWindow edit frames in flight; returns acked edits per
/// wall second.
double closed_loop(WireConn& writer, Load& load, double seconds) {
  const u64 acked0 = load.acked_edits;
  const double took = run_closed_loop(
      writer, kWindow, seconds,
      [&] {
        if (load.exhausted()) return false;
        load.report->attempt();
        writer.send(FrameType::kEdit, serve::encode_edit_request(load.next_frame()),
                    Pending{now_ns(), kEditReq, 0});
        return true;
      },
      [&](const Frame& f, const Pending& p) { load.on_response(f, p, false); });
  return static_cast<double>(load.acked_edits - acked0) / took;
}

/// Open loop at the fixed rates; returns the generator's lateness samples.
std::vector<double> open_loop(WireConn& writer, std::vector<std::unique_ptr<WireConn>>& readers,
                              Load& load, const Args& args, double seconds, u32 num_classes,
                              util::Rng& rng) {
  std::vector<WireConn*> conns{&writer};
  for (auto& r : readers) conns.push_back(r.get());
  std::vector<OpenStream> streams;
  const i64 start = now_ns();
  const double frames_per_s = args.serve_edit_rate / static_cast<double>(kFrameEdits);
  streams.push_back({start, static_cast<i64>(1e9 / frames_per_s), [&](i64 due) {
                       if (load.exhausted()) return;
                       load.report->attempt();
                       writer.send(FrameType::kEdit,
                                   serve::encode_edit_request(load.next_frame()),
                                   Pending{due, kEditReq, 0});
                     }});
  const i64 read_interval = static_cast<i64>(1e9 * kReaders / args.serve_read_rate);
  for (int i = 0; i < kReaders; ++i) {
    WireConn* conn = readers[static_cast<std::size_t>(i)].get();
    streams.push_back({start + read_interval * i / kReaders, read_interval,
                       [&, conn, turn = i](i64 due) mutable {
                         load.report->attempt();
                         const int kind = 1 + turn++ % 3;
                         serve::PayloadWriter w;
                         if (kind == kClassReq) w.put_u32(rng.below_u32(kNodes));
                         if (kind == kMembersReq) w.put_u32(rng.below_u32(num_classes / 2));
                         const FrameType t = kind == kViewReq    ? FrameType::kView
                                             : kind == kClassReq ? FrameType::kClassOf
                                                                 : FrameType::kMembers;
                         conn->send(t, w.str(), Pending{due, kind, 0});
                       }});
  }
  std::vector<double> lag_us;
  const bool drained = run_open_loop(
      streams, conns, start + static_cast<i64>(seconds * 1e9), 10'000'000'000, lag_us,
      [&](const Frame& f, const Pending& p) { load.on_response(f, p, true); });
  if (!drained) load.report->fail("serve_mixed: requests left unanswered after the drain");
  return lag_us;
}

/// The same edit schedule replayed in-process, one public call per span.
void replay(const graph::Instance& inst, const std::vector<inc::Edit>& stream,
            std::size_t edits_per_epoch, double seconds, const std::filesystem::path& dir,
            util::Rng& rng, Report& report) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  IncrementalEngine engine(inst, core::Options::parallel(),
                           pram::ExecutionContext{}.with_threads(kThreads));
  serve::Journal journal((dir / "replay.wal").string(), serve::FsyncPolicy::Epoch);
  const EngineStats before = engine.serving_stats();
  std::vector<double> codec, append, sync, apply, delta, view, class_of_ns, members;
  std::size_t cursor = 0;
  std::vector<inc::Edit> batch;
  const i64 start = now_ns();
  while (seconds_since(start) < seconds && cursor + edits_per_epoch <= stream.size()) {
    Span epoch_span("bench.epoch");
    batch.clear();
    for (std::size_t done = 0; done < edits_per_epoch; done += kFrameEdits) {
      const auto frame = std::span(stream).subspan(cursor + done,
                                                   std::min(kFrameEdits, edits_per_epoch - done));
      std::vector<inc::Edit> decoded;
      codec.push_back(timed_us("serve.codec", [&] {
        std::string wire;
        serve::append_magic(wire);
        serve::append_frame(wire, FrameType::kEdit, serve::encode_edit_request(frame));
        serve::FrameSplitter splitter;
        splitter.feed(wire.data(), wire.size());
        decoded = serve::decode_edit_request(splitter.next()->payload);
      }));
      append.push_back(timed_us("serve.journal_append", [&] {
        journal.append(util::JournalRecord{engine.epoch(), decoded});
      }));
      batch.insert(batch.end(), decoded.begin(), decoded.end());
    }
    cursor += edits_per_epoch;
    report.attempt();
    apply.push_back(timed_us("inc.apply", [&] { engine.apply(batch); }));
    sync.push_back(timed_us("serve.journal_sync", [&] { journal.sync_epoch(); }));
    core::PartitionView v;
    view.push_back(timed_us("core.view", [&] { v = engine.view(); }));
    delta.push_back(timed_us("inc.take_view_delta", [&] { (void)engine.take_view_delta(); }));
    u32 cls = 0;
    class_of_ns.push_back(
        1e3 * timed_us("core.class_of", [&] { cls = v.class_of(rng.below_u32(kNodes)); }));
    members.push_back(timed_us("core.members", [&] { (void)v.class_members(cls); }));
  }
  const EngineStats after = engine.serving_stats();
  const double edits = static_cast<double>(after.edits.edits - before.edits.edits);
  report.add("serve.codec_us", median(codec), "us");
  report.add("serve.journal_append_us", median(append), "us");
  report.add("serve.journal_sync_us", median(sync), "us");
  report.add("inc.apply_us", median(apply), "us");
  report.add("inc.take_view_delta_us", median(delta), "us");
  report.add("inc.dirty_nodes_per_edit",
             edits > 0 ? static_cast<double>(after.edits.dirty_nodes - before.edits.dirty_nodes) / edits
                       : 0.0,
             "count");
  report.add("core.view_us", median(view), "us");
  report.add("core.class_of_ns", median(class_of_ns), "ns");
  report.add("core.members_us", median(members), "us");
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace

void run_serve_mixed(const Args& args, Report& report) {
  if (!(args.serve_edit_rate > 0) || !(args.serve_read_rate > 0)) {
    throw std::invalid_argument("serve_mixed needs --serve-edit-rate and --serve-read-rate");
  }
  util::Rng rng(args.seed * 0x9e3779b97f4a7c15ull + 0x5e7e);
  const graph::Instance inst = util::random_function(kNodes, kLabels, rng);
  const std::vector<inc::Edit> stream = util::random_edit_stream(
      inst, kStreamEdits, util::EditMix::LocalizedHotspot, kEditLabels, rng);
  const std::filesystem::path dir = std::filesystem::path(args.work_dir) / "serve_mixed";

  // Set-up: engine construction (initial solve), server + journal open,
  // connect, first VIEW round trip — repeated, the last one is kept.
  std::vector<double> setup_s;
  std::unique_ptr<ServerThread> server;
  std::optional<serve::Client> control;
  u32 num_classes = 0;
  for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    control.reset();
    server.reset();
    const i64 t0 = now_ns();
    server = std::make_unique<ServerThread>(
        dir, [&](const std::filesystem::path& d) { return make_server(inst, d); });
    control = serve::Client::connect("127.0.0.1", server->port());
    num_classes = control->view().num_classes;
    setup_s.push_back(seconds_since(t0));
  }

  const double setup_rss_mb = peak_rss_mb();
  Load load;
  load.stream = &stream;
  load.report = &report;
  WireConn writer(server->port());
  std::vector<std::unique_ptr<WireConn>> readers;
  for (int i = 0; i < kReaders; ++i) readers.push_back(std::make_unique<WireConn>(server->port()));

  // Each closed loop may use the stream up to what the open loops after it
  // need.
  auto open_reserve = [&](double seconds) {
    return static_cast<std::size_t>(1.25 * args.serve_edit_rate * seconds) + kFrameEdits;
  };
  ServingRounds rounds;
  std::unordered_map<std::string, u64> s0, s1;
  double measured_s = 0;
  std::vector<double> lag_us;
  if (!args.trace) {
    const double round_s = args.seconds / kRounds;
    const std::size_t reserve = open_reserve(0.5 * round_s);
    if (kRounds * reserve > stream.size()) {
      throw std::invalid_argument("serve_mixed: --serve-edit-rate exceeds the edit stream");
    }
    for (int r = 0; r < kRounds; ++r) {
      load.limit = stream.size() - static_cast<std::size_t>(kRounds - r) * reserve;
      const double capacity = closed_loop(writer, load, 0.5 * round_s);
      load.limit += reserve;
      load.edit_us.clear();
      load.read_us.clear();
      const std::vector<double> lag =
          open_loop(writer, readers, load, args, 0.5 * round_s, num_classes, rng);
      lag_us.insert(lag_us.end(), lag.begin(), lag.end());
      rounds.add(capacity, load.edit_us, load.read_us);
    }
  } else {
    const std::size_t reserve = open_reserve(0.3 * args.seconds);
    if (reserve > stream.size()) {
      throw std::invalid_argument("serve_mixed: --serve-edit-rate exceeds the edit stream");
    }
    load.limit = stream.size() - reserve;
    const double untraced = closed_loop(writer, load, 0.15 * args.seconds);
    Tracer::get().set_enabled(true);
    const double traced = closed_loop(writer, load, 0.15 * args.seconds);
    Tracer::get().set_enabled(false);
    report.add("trace.overhead_pct", (untraced / traced - 1.0) * 100.0, "%");
    load.limit = stream.size();
    s0 = stats_map(*control);
    const i64 t0 = now_ns();
    lag_us = open_loop(writer, readers, load, args, 0.3 * args.seconds, num_classes, rng);
    measured_s = seconds_since(t0);
    s1 = stats_map(*control);
  }

  std::unordered_map<std::string, u64> final_stats = stats_map(*control);

  // Final check: the served labels against a fresh solve of our own copy.
  graph::Instance copy = inst;
  for (std::size_t i = 0; i < load.cursor; ++i) inc::apply_raw(stream[i], copy.f, copy.b);
  report.attempt();
  const serve::Client::Labels served = control->labels();
  core::Solver solver(core::Options::parallel(), pram::ExecutionContext{}.with_threads(kThreads));
  if (served.labels != solver.solve(copy).q) {
    report.fail("serve_mixed: final LABELS differ from a fresh solve of the edited instance");
  }
  control.reset();
  server.reset();

  if (args.trace) {
    auto d = [&](const char* k) { return static_cast<double>(s1[k] - s0[k]); };
    const double edits = d("edits_accepted");
    report.add("serve.edits_per_epoch", edits / d("epochs_flushed"), "count");
    report.add("serve.journal_bytes_per_edit", d("journal_bytes") / edits, "bytes");
    report.add("serve.fsyncs_per_s", d("journal_fsyncs") / measured_s, "1/s");
    report.add("serve.edit_frames_rejected", d("edit_frames_rejected"), "count");
    report.add("inc.repairs", d("engine_repairs"), "count");
    report.add("inc.rebuilds", d("engine_rebuilds"), "count");
    report.add("loadgen.lag_p99_us", quantile(lag_us, 0.99), "us");
    report.add("serve.write_p99_us", quantile(load.edit_us, 0.99), "us");
    report.add("serve.read_p99_us", quantile(load.read_us, 0.99), "us");
    const auto per_epoch = static_cast<std::size_t>(edits / d("epochs_flushed") + 0.5);
    Tracer::get().set_enabled(true);
    replay(inst, stream, std::max<std::size_t>(per_epoch, 1), 0.4 * args.seconds,
           std::filesystem::path(args.work_dir) / "serve_replay", rng, report);
    Tracer::get().set_enabled(false);
    return;
  }

  report.add("setup_s", median(setup_s), "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  rounds.report(report);
  std::cerr << "serve_mixed: " << kRounds << " rounds, closed loop median "
            << rounds.median_throughput() << " edits/s; generator lag p99 "
            << quantile(lag_us, 0.99) << " us; " << load.cursor << " edits sent in "
            << final_stats["epochs_flushed"] << " epochs, "
            << final_stats["engine_rebuilds"] << " engine rebuilds; peak RSS after set-up "
            << setup_rss_mb << " MB\n";
}

}  // namespace perfbench
