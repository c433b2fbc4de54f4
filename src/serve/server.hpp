#pragma once
// serve::Server — the durable, epoch-batched TCP front end over sfcp::Engine.
//
// One thread runs the event loop (epoll on Linux, poll elsewhere); sockets
// are non-blocking with per-connection read/write buffers, so one slow
// client never stalls the rest.  Edits accepted during a loop iteration
// accumulate into a single epoch batch: the batch is journaled record by
// record as it is accepted (write-ahead), applied with ONE Engine::apply()
// at the end of the iteration (or earlier, when a read-type frame needs the
// current partition), and the flushed view delta both advances the served
// PartitionView and fans out to SUBSCRIBE-ers as a Notify frame carrying
// only the changed canonical classes (a rebuild downgrades to full).
// EDITED acks are deferred to that flush so they carry the epoch the batch
// actually landed in.
//
// Durability: ServerOptions::journal_path enables the write-ahead Journal
// (serve/journal.hpp) with the configured fsync policy; checkpoint_every
// edits the server writes an `sfcp-checkpoint v1` atomically and resets the
// journal.  Construction replays a recovered journal tail onto the engine
// (restore the checkpoint first via recover_engine() below).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/partition_view.hpp"
#include "engine.hpp"
#include "fleet/fleet_engine.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"

namespace sfcp::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; Server::port() reports the bound one

  std::string journal_path;     ///< empty = no durability (pure in-memory serving)
  FsyncPolicy fsync = FsyncPolicy::Epoch;
  std::string checkpoint_path;  ///< empty with a journal = journal_path + ".ckpt"
  u64 checkpoint_every = 0;     ///< auto-checkpoint every k accepted edits; 0 = off

  int backlog = 16;

  /// Worker-pool width for epoch applies (pram/worker_pool.hpp): the server
  /// owns a persistent pool and installs it on its engine/fleet, so
  /// per-epoch repair fans run on workers the server sizes and owns.
  /// -1 = auto (session pram::threads(); no pool when that is 1), 0/1 =
  /// never pool (rounds use the event-loop thread's default pool), >= 2 =
  /// exactly that width (including the event-loop thread as one lane).
  int pool_threads = -1;
};

/// Counters the STATS frame exports alongside EngineStats.
struct ServeStats {
  u64 connections_accepted = 0;
  u64 connections_open = 0;
  u64 frames_served = 0;        ///< request frames answered (errors included)
  u64 edits_accepted = 0;
  u64 edit_frames_rejected = 0;
  u64 epochs_flushed = 0;       ///< Engine::apply batches
  u64 notifications_sent = 0;
  u64 checkpoints_written = 0;
  u64 journal_records = 0;
  u64 journal_bytes = 0;
  u64 journal_fsyncs = 0;
  u64 recovered_records = 0;    ///< journal records replayed at startup
  u64 recovered_skipped = 0;    ///< records the checkpoint already reflected
  bool journal_tail_torn = false;
  bool journal_failed = false;  ///< a journal append failed; edits are being refused
};

/// Restores serving state from disk: loads the checkpoint at
/// `checkpoint_path` when it exists (through sfcp::load_engine_checkpoint),
/// else constructs a fresh engine from `inst` via
/// sfcp::engines().make(engine_name).  The journal tail is NOT replayed
/// here — hand the result to Server, whose constructor replays it.
std::unique_ptr<Engine> recover_engine(const std::string& checkpoint_path,
                                       std::string_view engine_name, graph::Instance inst,
                                       const core::Options& opt = core::Options::parallel(),
                                       const pram::ExecutionContext& ctx = {});

class Poller;  // epoll/poll readiness abstraction (server.cpp)

class Server {
 public:
  /// Binds and listens immediately; opens the journal (truncating any torn
  /// tail) and replays its surviving records onto `engine`.  Throws
  /// std::runtime_error on bind/journal failure.
  Server(std::unique_ptr<Engine> engine, ServerOptions opt = {});

  /// Fleet mode: serves a whole fleet::FleetEngine behind FLEET_EDIT /
  /// FLEET_VIEW frames (classic single-instance frames are refused; STATS
  /// still works and carries fleet_* counters).  The journal, when
  /// configured, uses the fleet record format with per-record instance ids;
  /// recovery replays each record against its instance's own epoch floor.
  /// Install the fleet's factory before constructing the server so journal
  /// replay can materialize instances.
  Server(std::unique_ptr<fleet::FleetEngine> fleet, ServerOptions opt = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port (resolves an ephemeral request).
  std::uint16_t port() const noexcept { return port_; }

  /// Classic mode only — a fleet-mode server has no single engine.
  Engine& engine() noexcept { return *engine_; }
  bool fleet_mode() const noexcept { return fleet_ != nullptr; }
  /// Fleet mode only.
  fleet::FleetEngine& fleet() noexcept { return *fleet_; }
  const ServerOptions& options() const noexcept { return opt_; }
  ServeStats stats() const noexcept;

  /// Runs the event loop until stop().
  void run();

  /// One event-loop iteration (wait up to timeout_ms, service ready
  /// sockets, flush the epoch batch).  Returns false once stop() was seen.
  bool run_once(int timeout_ms);

  /// Thread-safe: wakes the loop and makes run()/run_once() return.
  void stop();

  /// Flushes any pending epoch batch now (tests drive this directly).
  void flush();

  /// Writes a checkpoint to `path` (empty = configured checkpoint path) and
  /// resets the journal.  Pending edits are flushed first.  Returns false
  /// when the engine is not checkpointable or no path is known.
  bool checkpoint(const std::string& path = "");

 private:
  struct Connection;
  struct PendingAck {
    int fd = -1;
    u32 accepted = 0;
    bool fleet = false;        ///< ack carries the instance's epoch, not the engine's
    u64 instance = 0;
  };

  void accept_ready_();
  void read_ready_(Connection& c);
  void write_ready_(Connection& c);
  void handle_frame_(Connection& c, const Frame& f);
  void send_frame_(Connection& c, FrameType type, std::string_view payload);
  void send_error_(Connection& c, std::string_view message);
  void flush_socket_(Connection& c);
  void close_connection_(int fd);
  Connection* find_(int fd) noexcept;
  void init_net_();
  inc::ViewDelta refresh_served_view_();
  void notify_subscribers_(const inc::ViewDelta& vd);
  std::string encode_stats_() const;
  bool do_checkpoint_(const std::string& path);
  void maybe_autocheckpoint_();
  void init_pool_();

  /// Session worker pool for epoch applies.  Declared BEFORE the engines:
  /// members destruct in reverse declaration order, so the engines (which
  /// hold installed pool pointers) go away first and the pool joins its
  /// workers last.
  std::unique_ptr<pram::WorkerPool> pool_;
  std::unique_ptr<Engine> engine_;        ///< classic mode; null in fleet mode
  std::unique_ptr<fleet::FleetEngine> fleet_;  ///< fleet mode; null in classic mode
  ServerOptions opt_;
  Journal journal_;
  bool durable_ = false;
  bool journal_failed_ = false;  ///< an append failed: edits are refused server-wide
  std::string journal_error_;

  std::unique_ptr<Poller> poller_;
  bool accept_paused_ = false;  ///< listen fd deregistered after EMFILE/ENFILE
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::vector<int> dead_fds_;

  core::PartitionView served_view_;
  std::vector<inc::Edit> batch_;       ///< edits accepted since the last flush
  std::vector<fleet::InstanceEdit> fleet_batch_;  ///< fleet-mode accepted edits
  std::vector<PendingAck> pending_acks_;
  u64 edits_since_checkpoint_ = 0;
  ServeStats stats_{};
  std::atomic<bool> stopping_{false};
};

}  // namespace sfcp::serve
