#pragma once
// What the serving workloads share: non-blocking sfcp-wire connections for
// the load generator, the closed- and open-loop runners, the per-round
// end-to-end figures, and the server's event-loop thread.
//
// A connection keeps the due time of every request it has sent in a FIFO;
// the server answers a connection's requests in order, so each response
// pops the oldest entry.  Latency is response time minus due time: in the
// open loop the due time is the request's slot in the schedule, so a stall
// also charges the requests queued behind it.

#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {

struct Pending {
  i64 due_ns = 0;
  int kind = 0;  ///< caller-defined request class
  u64 tag = 0;   ///< caller-defined (e.g. instance id)
};

class WireConn {
 public:
  explicit WireConn(std::uint16_t port);
  ~WireConn();
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  int fd() const noexcept { return fd_; }
  std::size_t outstanding() const noexcept { return pending_.size(); }
  bool wants_write() const noexcept { return out_off_ < out_.size(); }

  /// Queues one request frame and writes what the socket takes now.
  void send(sfcp::serve::FrameType type, std::string_view payload, Pending p);
  /// Writes buffered request bytes (after POLLOUT).
  void flush_out();
  /// Reads what is available and hands each response with its request.
  /// Returns false when the server closed the connection.
  bool read_ready(const std::function<void(const sfcp::serve::Frame&, const Pending&)>& on_frame);

 private:
  int fd_ = -1;
  std::string out_;
  std::size_t out_off_ = 0;
  sfcp::serve::FrameSplitter in_;
  std::deque<Pending> pending_;
};

/// Waits up to `timeout_ns` for any of `conns` to become readable (or
/// writable, when it has buffered bytes) and services them.  Returns false
/// when a connection was closed by the server.
bool poll_conns(std::vector<WireConn*>& conns, i64 timeout_ns,
                const std::function<void(const sfcp::serve::Frame&, const Pending&)>& on_frame);

/// Closed loop on one connection: keeps `window` requests in flight for
/// `seconds` (`send_next` sends one and returns false once the load is
/// exhausted), then waits for the rest.  Returns the wall seconds taken.
double run_closed_loop(WireConn& conn, std::size_t window, double seconds,
                       const std::function<bool()>& send_next,
                       const std::function<void(const sfcp::serve::Frame&, const Pending&)>& on_frame);

/// One request stream of an open loop: `send(due)` sends the request
/// scheduled at `due`; the next is due at `next_ns`, then every `interval_ns`.
struct OpenStream {
  i64 next_ns = 0;
  i64 interval_ns = 0;
  std::function<void(i64 due)> send;
};

/// Runs open-loop streams until `end_ns`, then drains responses for at most
/// `drain_ns`.  Every request is sent at its due time or as soon after as
/// the generator can; how late it was goes into `lag_us`.  Returns false if
/// requests were still outstanding after the drain.
bool run_open_loop(std::vector<OpenStream>& streams, std::vector<WireConn*>& conns, i64 end_ns,
                   i64 drain_ns, std::vector<double>& lag_us,
                   const std::function<void(const sfcp::serve::Frame&, const Pending&)>& on_frame);

/// End-to-end figures of a serving workload, one entry per round (a closed
/// loop followed by an open loop).  The run reports the median over rounds,
/// so a burst of noise from the host moves one round, not the result.  A
/// latency series with fewer than kMinRoundSamples samples in some round
/// (serve_mixed's reads) is reported as percentiles of all rounds' samples
/// pooled instead.
///
/// Only medians are end-to-end figures.  On the shared reference host a few
/// per cent of requests land in 10-30 ms stalls (journal and view
/// maintenance on the event loop, reads, host preemption), so p90 and p99
/// sit on that knee and swing several-fold from run to run, and even p75
/// moved by more than a quarter between runs of the same code.  The traced
/// run reports the p99s (serve.write_p99_us, serve.read_p99_us).
class ServingRounds {
 public:
  void add(double capacity, const std::vector<double>& write_us,
           const std::vector<double>& read_us);
  /// Adds throughput_per_s, write_p50_us and read_p50_us.
  void report(Report& r);
  double median_throughput() { return median(throughput_); }

 private:
  static constexpr std::size_t kMinRoundSamples = 200;
  std::vector<double> throughput_;
  std::vector<std::vector<double>> write_us_, read_us_;  ///< per round
};

/// A serve::Server running its event loop on its own thread.  The journal
/// directory is emptied before `make` builds the server in it and removed
/// once the server has stopped.
class ServerThread {
 public:
  using Make = std::function<std::unique_ptr<sfcp::serve::Server>(const std::filesystem::path&)>;
  ServerThread(std::filesystem::path dir, const Make& make);
  ~ServerThread();
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  std::uint16_t port() const { return server_->port(); }

 private:
  std::filesystem::path dir_;
  std::unique_ptr<sfcp::serve::Server> server_;
  std::thread loop_;
};

/// The server's STATS counters by name.
std::unordered_map<std::string, u64> stats_map(sfcp::serve::Client& c);

/// Latency of one response against its due time, in microseconds.
inline double latency_us(const Pending& p) { return static_cast<double>(now_ns() - p.due_ns) * 1e-3; }

}  // namespace perfbench
