// fleet_zipf — many tiny tenants behind one fleet-mode server.
//
// A fleet-mode serve::Server (durable fleet journal, fsync=epoch, 2-lane
// pool) serves 2^12 Zipf(0.99)-keyed instances of 24 nodes (incremental
// engines, warm limit 1024, in-memory cold tier).  Set-up materializes
// every tenant (factory and first solve), so the timed rounds route, evict
// and fault in; the cold start shows in setup_s.  The generator sends
// FLEET_EDIT frames of 4 edits to one instance each, in ten rounds of two
// phases, and every end-to-end figure is the median over rounds:
//   * closed loop: a fixed number of frames (sized so that it takes about
//     half a round), 64 in flight — capacity;
//   * open loop, the other half: frames at --fleet-edit-rate edits/s plus one reader
//     connection sending FLEET_VIEW at --fleet-view-rate views/s, each
//     request timed from its due time.
// Routing, eviction and fault-in of tiny instances dominate; core only ever
// solves inputs that fit in cache.
//
// The closed loop does a fixed amount of work rather than running for a
// fixed time, so a run does the same work whatever the host's speed and
// peak RSS does not grow with throughput.  The id space is 2^12, not 2^20:
// the larger the fleet's heap, the more its throughput followed the memory
// traffic of other work on the shared host (two streaming neighbour threads
// cut it by a third over 2^20 ids; over minutes of ordinary host load it
// swung by 25% over 2^16 ids and by 12% over 2^12).  4096 tenants are four
// times the warm limit, so about a quarter of the edit frames still evict
// one instance and fault in another.
//
// Correctness: every ack acknowledges its whole frame and instance epochs
// never go backwards; at the end, sampled hot and tail instances must
// report over the wire the epoch and class count of the generator's own
// copy (solved fresh).  The traced run also byte-compares full labels of
// the sampled instances in its in-process replay.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common.hpp"
#include "fleet/fleet_engine.hpp"
#include "pram/worker_pool.hpp"
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

constexpr u64 kInstances = u64{1} << 12;
constexpr std::size_t kNodesPer = 24;
constexpr u32 kLabels = 4;
constexpr std::size_t kWarmLimit = 1024;
constexpr std::size_t kFrameEdits = 4;
constexpr std::size_t kWindow = 64;
constexpr int kSetups = 9;
constexpr int kRounds = 10;  // closed + open loop pairs per run
constexpr int kThreads = 2;  // fleet solver budget and server pool width
/// Closed-loop frames per second of run time.  Half a round's worth is sent
/// each round, so at the reference machine's capacity (about 100k edits/s)
/// the closed loop fills half of every round.
constexpr double kClosedFramesPerSecond = 24576;
constexpr u64 kTailRank = kWarmLimit;  ///< ids ranked past the warm set are "tail" samples
constexpr int kSamples = 8;        ///< hot and tail instances checked each

enum Kind { kEditReq = 0, kViewReq = 1 };

/// The tenant behind an id: a function of the seed and the id only.
struct Factory {
  u64 seed = 0;
  graph::Instance operator()(fleet::InstanceId id) const {
    util::Rng rng(seed ^ (id * 0x9e3779b97f4a7c15ull + 1));
    return util::random_function(kNodesPer, kLabels, rng);
  }
};

fleet::FleetConfig fleet_config() {
  fleet::FleetConfig cfg;
  cfg.engine = "incremental";
  cfg.warm_limit = kWarmLimit;
  cfg.ctx.threads = kThreads;
  return cfg;
}

/// Pre-sampled load: which instance each frame edits and the edits, plus an
/// independent Zipf stream of view targets.
struct Stream {
  std::vector<fleet::InstanceId> frame_ids;
  std::vector<inc::Edit> edits;  ///< kFrameEdits per frame
  std::vector<fleet::InstanceId> view_ids;
  std::span<const inc::Edit> frame(std::size_t i) const {
    return std::span(edits).subspan(i * kFrameEdits, kFrameEdits);
  }
};

Stream make_stream(u64 seed, std::size_t frames) {
  Stream s;
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0xf1ee7);
  util::ZipfSampler zipf(kInstances);
  s.frame_ids.resize(frames);
  s.edits.resize(frames * kFrameEdits);
  for (std::size_t i = 0; i < frames; ++i) {
    s.frame_ids[i] = zipf(rng);
    for (std::size_t j = 0; j < kFrameEdits; ++j) {
      const u32 x = rng.below_u32(kNodesPer);
      s.edits[i * kFrameEdits + j] = rng.chance(0.75)
                                         ? inc::Edit::set_f(x, rng.below_u32(kNodesPer))
                                         : inc::Edit::set_b(x, rng.below_u32(kLabels));
    }
  }
  s.view_ids.resize(std::size_t{1} << 18);
  for (auto& id : s.view_ids) id = zipf(rng);
  return s;
}

std::unique_ptr<serve::Server> make_server(const Factory& factory,
                                           const std::filesystem::path& dir) {
  auto fleet = std::make_unique<fleet::FleetEngine>(fleet_config());
  fleet->set_factory(factory);
  serve::ServerOptions opt;
  opt.journal_path = (dir / "fleet.wal").string();
  opt.fsync = serve::FsyncPolicy::Epoch;
  opt.pool_threads = kThreads;
  return std::make_unique<serve::Server>(std::move(fleet), opt);
}

struct Load {
  const Stream* stream = nullptr;
  std::size_t frames_sent = 0, views_sent = 0;
  std::unordered_map<u64, u64> last_epoch;  ///< per instance, from acks
  u64 acked_edits = 0;
  std::vector<double> edit_us, view_us;
  Report* report = nullptr;

  bool exhausted() const { return frames_sent >= stream->frame_ids.size(); }

  void send_edit(WireConn& c, i64 due) {
    const std::size_t i = frames_sent++;
    report->attempt();
    c.send(FrameType::kFleetEdit,
           serve::encode_fleet_edit_request(stream->frame_ids[i], stream->frame(i)),
           Pending{due, kEditReq, stream->frame_ids[i]});
  }
  void send_view(WireConn& c, i64 due) {
    const fleet::InstanceId id = stream->view_ids[views_sent++ % stream->view_ids.size()];
    report->attempt();
    c.send(FrameType::kFleetView, serve::encode_fleet_view_request(id), Pending{due, kViewReq, id});
  }

  void on_response(const Frame& f, const Pending& p, bool record) {
    const double us = latency_us(p);
    if (f.type == FrameType::kError) {
      report->fail("fleet_zipf: server error: " + serve::decode_error(f.payload));
      (p.kind == kEditReq ? edit_us : view_us).push_back(std::numeric_limits<double>::infinity());
      return;
    }
    serve::PayloadReader r(f.payload);
    const u64 epoch = r.get_u64("epoch");
    if (p.kind == kEditReq) {
      const u32 accepted = r.get_u32("edited count");
      if (f.type != FrameType::kEdited || accepted != kFrameEdits) {
        report->fail("fleet_zipf: malformed EDITED ack");
      }
      u64& last = last_epoch[p.tag];
      if (epoch < last) report->fail("fleet_zipf: instance epoch went backwards");
      last = epoch;
      acked_edits += accepted;
      if (record) edit_us.push_back(us);
      return;
    }
    if (f.type != FrameType::kViewInfo || r.get_u32("view n") != kNodesPer) {
      report->fail("fleet_zipf: malformed FLEET_VIEW answer");
    }
    if (record) view_us.push_back(us);
  }
};

/// Closed loop: kWindow edit frames in flight until `frames` frames are
/// acked (or `max_seconds` pass); returns acked edits per wall second.
double closed_loop(WireConn& writer, Load& load, std::size_t frames, double max_seconds) {
  const u64 acked0 = load.acked_edits;
  const std::size_t last = load.frames_sent + frames;
  const double took = run_closed_loop(
      writer, kWindow, max_seconds,
      [&] {
        if (load.exhausted() || load.frames_sent >= last) return false;
        load.send_edit(writer, now_ns());
        return true;
      },
      [&](const Frame& f, const Pending& p) { load.on_response(f, p, false); });
  return static_cast<double>(load.acked_edits - acked0) / took;
}

std::vector<double> open_loop(WireConn& writer, WireConn& reader, Load& load, const Args& args,
                              double seconds) {
  std::vector<WireConn*> conns{&writer, &reader};
  const i64 start = now_ns();
  std::vector<OpenStream> streams;
  streams.push_back({start, static_cast<i64>(1e9 * kFrameEdits / args.fleet_edit_rate),
                     [&](i64 due) {
                       if (!load.exhausted()) load.send_edit(writer, due);
                     }});
  streams.push_back({start, static_cast<i64>(1e9 / args.fleet_view_rate),
                     [&](i64 due) { load.send_view(reader, due); }});
  std::vector<double> lag_us;
  const bool drained = run_open_loop(
      streams, conns, start + static_cast<i64>(seconds * 1e9), 10'000'000'000, lag_us,
      [&](const Frame& f, const Pending& p) { load.on_response(f, p, true); });
  if (!drained) load.report->fail("fleet_zipf: requests left unanswered after the drain");
  return lag_us;
}

/// Set-up's warm-up: a FLEET_VIEW of every tenant, kWindow in flight,
/// coldest first so that the hottest kWarmLimit end up warm.
void warm_up(std::uint16_t port, Report& report) {
  WireConn conn(port);
  u64 left = kInstances;
  run_closed_loop(
      conn, kWindow, 60.0,
      [&] {
        if (left == 0) return false;
        const fleet::InstanceId id = --left;
        conn.send(FrameType::kFleetView, serve::encode_fleet_view_request(id),
                  Pending{now_ns(), kViewReq, id});
        return true;
      },
      [&](const Frame& f, const Pending&) {
        if (f.type != FrameType::kViewInfo) report.fail("fleet_zipf: set-up FLEET_VIEW failed");
      });
}

/// The generator's own copy of one instance after the first `frames` frames.
struct Mirror {
  graph::Instance inst;
  u64 epoch = 0;
};

Mirror mirror(const Factory& factory, const Stream& s, fleet::InstanceId id, std::size_t frames) {
  Mirror m{factory(id), 0};
  for (std::size_t i = 0; i < frames; ++i) {
    if (s.frame_ids[i] != id) continue;
    for (const inc::Edit& e : s.frame(i)) m.epoch += inc::apply_raw(e, m.inst.f, m.inst.b) ? 1 : 0;
  }
  return m;
}

/// Hot (most frequent) and tail (rank past kTailRank) instances among the
/// first `frames` frames.
std::vector<fleet::InstanceId> sample_ids(const Stream& s, std::size_t frames) {
  std::vector<fleet::InstanceId> hot, tail;
  std::unordered_set<fleet::InstanceId> seen;
  for (std::size_t i = 0; i < frames && tail.size() < kSamples; ++i) {
    const fleet::InstanceId id = s.frame_ids[i];
    if (id > kTailRank && seen.insert(id).second) tail.push_back(id);
  }
  for (fleet::InstanceId id = 1; id <= kSamples; ++id) hot.push_back(id);
  hot.insert(hot.end(), tail.begin(), tail.end());
  return hot;
}

void replay(const Factory& factory, const Stream& s, std::size_t edits_per_epoch,
            double seconds, Report& report) {
  std::unique_ptr<pram::WorkerPool> pool;
  {
    Span p("pram.pool_start");
    pool = std::make_unique<pram::WorkerPool>(kThreads);
  }
  fleet::FleetEngine fleet(fleet_config());
  fleet.set_factory(factory);
  fleet.install_pool(pool.get());
  core::Solver batch_solver(core::Options::parallel(),
                            pram::ExecutionContext{}.with_threads(kThreads).with_pool(pool.get()));
  const std::size_t frames_per_epoch = std::max<std::size_t>(1, edits_per_epoch / kFrameEdits);
  std::unordered_set<fleet::InstanceId> born;
  std::vector<double> apply_ms, view_us, solve_us_per_inst;
  std::vector<fleet::InstanceEdit> batch;
  std::size_t frame = 0, views = 0;
  const i64 start = now_ns();
  while (seconds_since(start) < seconds && frame + frames_per_epoch <= s.frame_ids.size()) {
    Span epoch_span("bench.epoch");
    batch.clear();
    std::vector<graph::Instance> cold;
    for (std::size_t i = frame; i < frame + frames_per_epoch; ++i) {
      for (const inc::Edit& e : s.frame(i)) batch.push_back({s.frame_ids[i], e});
      if (born.insert(s.frame_ids[i]).second) cold.push_back(factory(s.frame_ids[i]));
    }
    frame += frames_per_epoch;
    report.attempt();
    apply_ms.push_back(1e-3 * timed_us("fleet.apply_batch", [&] { fleet.apply_batch(batch); }));
    if (!cold.empty()) {
      const double us = timed_us("core.solve_batch", [&] { (void)batch_solver.solve_batch(cold); });
      solve_us_per_inst.push_back(us / static_cast<double>(cold.size()));
    }
    const fleet::InstanceId id = s.view_ids[views++ % s.view_ids.size()];
    view_us.push_back(timed_us("fleet.view", [&] { (void)fleet.view(id).num_classes(); }));
  }

  // Full labels of the sampled instances, byte for byte.
  for (const fleet::InstanceId id : sample_ids(s, frame)) {
    const Mirror m = mirror(factory, s, id, frame);
    report.attempt();
    const core::PartitionView v = fleet.view(id);
    const std::span<const u32> got = v.labels();
    const std::vector<u32> want = core::solve(m.inst).q;
    if (v.epoch() != m.epoch || !std::equal(got.begin(), got.end(), want.begin(), want.end())) {
      report.fail("fleet_zipf: replayed instance labels differ from a fresh solve");
    }
  }

  // The eviction image of one instance: save and load.
  std::vector<double> save_us, load_us;
  const inc::IncrementalSolver one(factory(s.frame_ids[0]));
  for (int i = 0; i < 2000; ++i) {
    std::stringstream image;
    save_us.push_back(timed_us("inc.save_checkpoint", [&] { one.save(image); }));
    load_us.push_back(timed_us("inc.load", [&] { (void)inc::IncrementalSolver::load(image); }));
  }
  fleet.install_pool(nullptr);

  report.add("fleet.apply_batch_ms", median(apply_ms), "ms");
  report.add("fleet.view_us", median(view_us), "us");
  report.add("core.solve_batch_us_per_instance", median(solve_us_per_inst), "us");
  report.add("inc.save_checkpoint_us", median(save_us), "us");
  report.add("inc.load_us", median(load_us), "us");
}

}  // namespace

void run_fleet_zipf(const Args& args, Report& report) {
  if (!(args.fleet_edit_rate > 0) || !(args.fleet_view_rate > 0)) {
    throw std::invalid_argument("fleet_zipf needs --fleet-edit-rate and --fleet-view-rate");
  }
  const Factory factory{args.seed * 0x2545f4914f6cdd1dull + 0x5eed};
  // Every frame the run can send: the closed loops' fixed share, the open
  // loops at their rate, and a margin for the generator catching up.
  const std::size_t closed_frames =
      static_cast<std::size_t>(kClosedFramesPerSecond * 0.5 * args.seconds / kRounds) + 1;
  const double open_frames = 0.5 * args.seconds * args.fleet_edit_rate / kFrameEdits;
  const Stream stream =
      make_stream(args.seed, kRounds * closed_frames + static_cast<std::size_t>(1.5 * open_frames) + 1024);
  const std::filesystem::path dir = std::filesystem::path(args.work_dir) / "fleet_zipf";

  // Set-up: fleet + factory, server + fleet journal open, connect, and the
  // warm-up that materializes every tenant — repeated.
  std::vector<double> setup_s;
  std::unique_ptr<ServerThread> server;
  std::optional<serve::Client> control;
  for (int i = 0; i < kSetups; ++i) {
    control.reset();
    server.reset();
    const i64 t0 = now_ns();
    server = std::make_unique<ServerThread>(
        dir, [&](const std::filesystem::path& d) { return make_server(factory, d); });
    control = serve::Client::connect("127.0.0.1", server->port());
    warm_up(server->port(), report);
    setup_s.push_back(seconds_since(t0));
  }

  Load load;
  load.stream = &stream;
  load.report = &report;
  WireConn writer(server->port());
  WireConn reader(server->port());

  ServingRounds rounds;
  std::vector<double> lag_us;
  std::unordered_map<std::string, u64> s0, s1;
  if (!args.trace) {
    const double round_s = args.seconds / kRounds;
    for (int r = 0; r < kRounds; ++r) {
      const double capacity = closed_loop(writer, load, closed_frames, 4 * round_s);
      load.edit_us.clear();
      load.view_us.clear();
      const std::vector<double> lag = open_loop(writer, reader, load, args, 0.5 * round_s);
      lag_us.insert(lag_us.end(), lag.begin(), lag.end());
      rounds.add(capacity, load.edit_us, load.view_us);
    }
  } else {
    s0 = stats_map(*control);
    const std::size_t frames = kRounds * closed_frames * 3 / 10;
    const double untraced = closed_loop(writer, load, frames, args.seconds);
    Tracer::get().set_enabled(true);
    const double traced = closed_loop(writer, load, frames, args.seconds);
    Tracer::get().set_enabled(false);
    report.add("trace.overhead_pct", (untraced / traced - 1.0) * 100.0, "%");
    lag_us = open_loop(writer, reader, load, args, 0.3 * args.seconds);
    s1 = stats_map(*control);
  }

  // Sampled hot and tail instances over the wire against our own copies.
  for (const fleet::InstanceId id : sample_ids(stream, load.frames_sent)) {
    const Mirror m = mirror(factory, stream, id, load.frames_sent);
    report.attempt();
    const serve::Client::ViewInfo v = control->fleet_view(id);
    if (v.epoch != m.epoch || v.num_classes != core::solve(m.inst).num_blocks) {
      report.fail("fleet_zipf: instance " + std::to_string(id) +
                  " epoch/class count differs from the generator's copy");
    }
  }
  const std::unordered_map<std::string, u64> final_stats = stats_map(*control);
  control.reset();
  server.reset();

  if (args.trace) {
    auto d = [&](const char* k) { return static_cast<double>(s1[k] - s0[k]); };
    const double kedits = d("fleet_edits") / 1000.0;
    const double misses = d("fleet_faults") + d("fleet_batched_cold_instances");
    report.add("fleet.warm_hit_ratio", 1.0 - misses / d("fleet_routes"), "ratio");
    report.add("fleet.warm_hit_base", d("fleet_routes"), "count");
    report.add("fleet.faults_per_kedit", d("fleet_faults") / kedits, "count");
    report.add("fleet.evictions_per_kedit", d("fleet_evictions") / kedits, "count");
    report.add("fleet.cold_instances_per_kedit", d("fleet_batched_cold_instances") / kedits,
               "count");
    report.add("fleet.warm_bytes", static_cast<double>(final_stats.at("fleet_warm_bytes")), "bytes");
    report.add("fleet.arena_bytes", static_cast<double>(final_stats.at("fleet_arena_bytes")),
               "bytes");
    report.add("loadgen.lag_p99_us", quantile(lag_us, 0.99), "us");
    report.add("serve.write_p99_us", quantile(load.edit_us, 0.99), "us");
    report.add("serve.read_p99_us", quantile(load.view_us, 0.99), "us");
    const double per_epoch = d("edits_accepted") / std::max(1.0, d("epochs_flushed"));
    report.add("serve.edits_per_epoch", per_epoch, "count");
    Tracer::get().set_enabled(true);
    replay(factory, stream, static_cast<std::size_t>(per_epoch + 0.5), 0.4 * args.seconds, report);
    Tracer::get().set_enabled(false);
    return;
  }

  report.add("setup_s", median(setup_s), "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  rounds.report(report);
  std::cerr << "fleet_zipf: " << kRounds << " rounds, closed loop median "
            << rounds.median_throughput() << " edits/s; " << load.frames_sent << " edit frames, "
            << load.views_sent << " views; generator lag p99 " << quantile(lag_us, 0.99) << " us; "
            << final_stats.at("fleet_instances") << " instances known, "
            << final_stats.at("fleet_evictions") << " evictions\n";
}

}  // namespace perfbench
