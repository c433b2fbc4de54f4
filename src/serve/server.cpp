#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#else
#include <poll.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "pram/config.hpp"
#include "pram/worker_pool.hpp"
#include "prof/profile.hpp"

namespace sfcp::serve {
namespace {

[[noreturn]] void fail_sys(const char* what) {
  throw std::runtime_error("serve::Server: " + std::string(what) + ": " +
                           std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) fail_sys("fcntl");
}

}  // namespace

// ---- Poller --------------------------------------------------------------
// Readiness notification behind one interface: epoll where available (the
// server's fd set outlives iterations, so registration amortizes), poll as
// the portable fallback (interest list rebuilt per wait — fine at fallback
// scale).

struct PollerEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;
};

#ifdef __linux__

class Poller {
 public:
  Poller() {
    epfd_ = ::epoll_create1(0);
    if (epfd_ < 0) fail_sys("epoll_create1");
  }
  ~Poller() { ::close(epfd_); }

  void add(int fd) { ctl_(EPOLL_CTL_ADD, fd, EPOLLIN); }
  void set_write(int fd, bool on) { ctl_(EPOLL_CTL_MOD, fd, EPOLLIN | (on ? EPOLLOUT : 0u)); }
  void remove(int fd) {
    struct epoll_event ev {};
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &ev);  // fd may already be gone
  }

  void wait(int timeout_ms, std::vector<PollerEvent>& out) {
    struct epoll_event evs[64];
    int n;
    do {
      n = ::epoll_wait(epfd_, evs, 64, timeout_ms);
    } while (n < 0 && errno == EINTR);
    if (n < 0) fail_sys("epoll_wait");
    out.clear();
    for (int i = 0; i < n; ++i) {
      PollerEvent e;
      e.fd = evs[i].data.fd;
      e.readable = (evs[i].events & (EPOLLIN | EPOLLHUP)) != 0;
      e.writable = (evs[i].events & EPOLLOUT) != 0;
      e.error = (evs[i].events & EPOLLERR) != 0;
      out.push_back(e);
    }
  }

 private:
  void ctl_(int op, int fd, unsigned events) {
    struct epoll_event ev {};
    ev.events = events;
    ev.data.fd = fd;
    if (::epoll_ctl(epfd_, op, fd, &ev) < 0) fail_sys("epoll_ctl");
  }
  int epfd_ = -1;
};

#else  // poll() fallback

class Poller {
 public:
  void add(int fd) { fds_.push_back({fd, false}); }
  void set_write(int fd, bool on) {
    for (auto& [f, w] : fds_) {
      if (f == fd) w = on;
    }
  }
  void remove(int fd) {
    std::erase_if(fds_, [fd](const auto& p) { return p.first == fd; });
  }

  void wait(int timeout_ms, std::vector<PollerEvent>& out) {
    std::vector<struct pollfd> pfds;
    pfds.reserve(fds_.size());
    for (const auto& [fd, w] : fds_) {
      pfds.push_back({fd, static_cast<short>(POLLIN | (w ? POLLOUT : 0)), 0});
    }
    int n;
    do {
      n = ::poll(pfds.data(), pfds.size(), timeout_ms);
    } while (n < 0 && errno == EINTR);
    if (n < 0) fail_sys("poll");
    out.clear();
    for (const struct pollfd& p : pfds) {
      if (p.revents == 0) continue;
      PollerEvent e;
      e.fd = p.fd;
      e.readable = (p.revents & (POLLIN | POLLHUP)) != 0;
      e.writable = (p.revents & POLLOUT) != 0;
      e.error = (p.revents & (POLLERR | POLLNVAL)) != 0;
      out.push_back(e);
    }
  }

 private:
  std::vector<std::pair<int, bool>> fds_;
};

#endif

// ---- connections ---------------------------------------------------------

struct Server::Connection {
  int fd = -1;
  FrameSplitter in;
  std::string out;           ///< bytes awaiting the socket
  std::size_t out_off = 0;
  bool want_write = false;   ///< poller armed for writability
  bool subscribed = false;
  bool closing = false;      ///< marked dead; reaped at end of iteration
};

// ---- recovery ------------------------------------------------------------

std::unique_ptr<Engine> recover_engine(const std::string& checkpoint_path,
                                       std::string_view engine_name, graph::Instance inst,
                                       const core::Options& opt,
                                       const pram::ExecutionContext& ctx) {
  if (!checkpoint_path.empty() && std::filesystem::exists(checkpoint_path)) {
    std::ifstream is(checkpoint_path, std::ios::binary);
    if (!is) {
      throw std::runtime_error("serve::recover_engine: cannot open checkpoint '" +
                               checkpoint_path + "'");
    }
    return load_engine_checkpoint(is, opt, ctx).engine;
  }
  return engines().make(engine_name, std::move(inst), opt, ctx);
}

// ---- Server --------------------------------------------------------------

Server::Server(std::unique_ptr<Engine> engine, ServerOptions opt)
    : engine_(std::move(engine)), opt_(std::move(opt)) {
  if (engine_ == nullptr) throw std::invalid_argument("serve::Server: null engine");
  init_pool_();  // before replay, so recovery applies fan out too

  if (!opt_.journal_path.empty()) {
    if (opt_.checkpoint_path.empty()) opt_.checkpoint_path = opt_.journal_path + ".ckpt";
    journal_ = Journal(opt_.journal_path, opt_.fsync);
    durable_ = true;
    stats_.journal_tail_torn = journal_.tail_was_torn();
    stats_.recovered_records = journal_.replay(*engine_, &stats_.recovered_skipped);
    journal_.sync_epoch();
  }

  // Serve from a fresh snapshot; drain the delta the initial view produced
  // so the first real flush notifies only its own changes.
  served_view_ = engine_->view();
  (void)engine_->take_view_delta();

  init_net_();
}

Server::Server(std::unique_ptr<fleet::FleetEngine> fleet, ServerOptions opt)
    : fleet_(std::move(fleet)), opt_(std::move(opt)) {
  if (fleet_ == nullptr) throw std::invalid_argument("serve::Server: null fleet");
  init_pool_();  // before replay, so recovery applies fan out too

  if (!opt_.journal_path.empty()) {
    journal_ = Journal(opt_.journal_path, opt_.fsync, JournalFormat::Fleet);
    durable_ = true;
    stats_.journal_tail_torn = journal_.tail_was_torn();
    // Replay against per-instance epoch floors: the fleet answers epoch(id)
    // from warm engines or the epoch recorded at eviction (adopted spill
    // files fault in to find out).  Records whose instance cannot be
    // materialized any more (in-memory cold images lost with the process and
    // no factory installed) are counted as skipped, not fatal.
    for (const util::FleetJournalRecord& rec : journal_.take_recovered_fleet()) {
      try {
        if (rec.epoch < fleet_->epoch(rec.instance)) {
          ++stats_.recovered_skipped;
          continue;
        }
        fleet_->apply(rec.instance, rec.edits);
        ++stats_.recovered_records;
      } catch (const std::exception&) {
        ++stats_.recovered_skipped;
      }
    }
    journal_.sync_epoch();
  }

  init_net_();
}

void Server::init_pool_() {
  int width = opt_.pool_threads;
  if (width < 0) width = pram::threads();
  if (width <= 1) return;  // nothing to pool: the event loop is the 1 lane
  pool_ = std::make_unique<pram::WorkerPool>(width);
  if (engine_) engine_->install_pool(pool_.get());
  if (fleet_) fleet_->install_pool(pool_.get());
}

void Server::init_net_() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) fail_sys("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opt_.port);
  if (::inet_pton(AF_INET, opt_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve::Server: bad host '" + opt_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd_, opt_.backlog) < 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = err;
    fail_sys("bind/listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), &len) < 0) {
    fail_sys("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);

  int pipefd[2];
  if (::pipe(pipefd) < 0) fail_sys("pipe");
  wake_read_fd_ = pipefd[0];
  wake_write_fd_ = pipefd[1];
  set_nonblocking(wake_read_fd_);
  set_nonblocking(wake_write_fd_);

  poller_ = std::make_unique<Poller>();
  poller_->add(listen_fd_);
  poller_->add(wake_read_fd_);
}

Server::~Server() {
  for (auto& c : conns_) {
    if (c->fd >= 0) ::close(c->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

ServeStats Server::stats() const noexcept {
  ServeStats s = stats_;
  if (durable_) {
    s.journal_records = journal_.appended_records();
    s.journal_bytes = journal_.bytes();
    s.journal_fsyncs = journal_.fsyncs();
    s.journal_failed = journal_failed_;
  }
  s.connections_open = conns_.size();
  return s;
}

void Server::run() {
  while (run_once(-1)) {
  }
}

bool Server::run_once(int timeout_ms) {
  if (stopping_.load(std::memory_order_relaxed)) return false;

  static thread_local std::vector<PollerEvent> events;
  poller_->wait(timeout_ms, events);

  for (const PollerEvent& ev : events) {
    if (ev.fd == listen_fd_) {
      if (ev.readable) accept_ready_();
      continue;
    }
    if (ev.fd == wake_read_fd_) {
      char buf[64];
      while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
      }
      continue;
    }
    Connection* c = find_(ev.fd);
    if (c == nullptr || c->closing) continue;
    if (ev.error) {
      c->closing = true;
      dead_fds_.push_back(c->fd);
      continue;
    }
    if (ev.readable) read_ready_(*c);
    if (ev.writable && !c->closing) write_ready_(*c);
  }

  // One epoch per iteration: everything accepted above lands together.
  flush();

  for (int fd : dead_fds_) close_connection_(fd);
  dead_fds_.clear();

  return !stopping_.load(std::memory_order_relaxed);
}

void Server::stop() {
  stopping_.store(true, std::memory_order_relaxed);
  const char b = 1;
  [[maybe_unused]] ssize_t r = ::write(wake_write_fd_, &b, 1);
}

// ---- socket plumbing -----------------------------------------------------

Server::Connection* Server::find_(int fd) noexcept {
  for (auto& c : conns_) {
    if (c->fd == fd) return c.get();
  }
  return nullptr;
}

void Server::accept_ready_() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Descriptor exhaustion is persistent, and with level-triggered
        // polling the still-readable listen fd would spin the loop at full
        // CPU.  Deregister it; close_connection_ re-arms once a descriptor
        // frees up.
        accept_paused_ = true;
        poller_->remove(listen_fd_);
        return;
      }
      return;  // transient accept failures are not fatal to the server
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    append_magic(conn->out);  // our half of the handshake
    Connection& c = *conn;
    conns_.push_back(std::move(conn));
    poller_->add(fd);
    ++stats_.connections_accepted;
    flush_socket_(c);
  }
}

void Server::read_ready_(Connection& c) {
  char buf[65536];
  bool eof = false;
  for (;;) {
    const ssize_t n = ::read(c.fd, buf, sizeof(buf));
    if (n > 0) {
      c.in.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // 0 = orderly shutdown; anything else = broken peer.  Either way stop
    // reading, but only mark the connection dead AFTER draining frames
    // already buffered: a client may legitimately pipeline EDITs and close
    // straight away, and those edits must still land.
    eof = true;
    break;
  }
  try {
    while (!c.closing) {
      std::optional<Frame> f = c.in.next();
      if (!f) break;
      handle_frame_(c, *f);
    }
  } catch (const std::exception& e) {
    // Framing is broken (bad magic, implausible length, malformed payload):
    // the byte stream can no longer be trusted, so report and drop the peer.
    send_error_(c, e.what());
    c.closing = true;
    dead_fds_.push_back(c.fd);
  }
  if (eof && !c.closing) {
    c.closing = true;
    dead_fds_.push_back(c.fd);
  }
}

void Server::write_ready_(Connection& c) { flush_socket_(c); }

void Server::send_frame_(Connection& c, FrameType type, std::string_view payload) {
  if (c.closing) return;
  append_frame(c.out, type, payload);
  ++stats_.frames_served;
  flush_socket_(c);
}

void Server::send_error_(Connection& c, std::string_view message) {
  if (c.closing) return;
  append_frame(c.out, FrameType::kError, encode_error(message));
  ++stats_.frames_served;
  flush_socket_(c);
}

void Server::flush_socket_(Connection& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::write(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!c.want_write) {
        c.want_write = true;
        poller_->set_write(c.fd, true);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    c.closing = true;
    dead_fds_.push_back(c.fd);
    return;
  }
  c.out.clear();
  c.out_off = 0;
  if (c.want_write) {
    c.want_write = false;
    poller_->set_write(c.fd, false);
  }
}

void Server::close_connection_(int fd) {
  poller_->remove(fd);
  ::close(fd);
  std::erase_if(conns_, [fd](const auto& c) { return c->fd == fd; });
  std::erase_if(pending_acks_, [fd](const PendingAck& a) { return a.fd == fd; });
  if (accept_paused_) {
    // A descriptor just freed up: resume accepting.
    accept_paused_ = false;
    poller_->add(listen_fd_);
  }
}

// ---- protocol ------------------------------------------------------------

void Server::handle_frame_(Connection& c, const Frame& f) {
  // The two modes speak disjoint request sets (STATS is common): classic
  // frames address "the" engine, which a fleet server does not have, and
  // fleet frames address an instance id a classic server cannot route.
  if (fleet_ != nullptr) {
    if (f.type != FrameType::kFleetEdit && f.type != FrameType::kFleetView &&
        f.type != FrameType::kStats) {
      send_error_(c, std::string(frame_type_name(f.type)) +
                         " frame on a fleet server (use FleetEdit/FleetView/Stats)");
      return;
    }
  } else if (f.type == FrameType::kFleetEdit || f.type == FrameType::kFleetView) {
    send_error_(c, std::string(frame_type_name(f.type)) +
                       " frame on a single-instance server");
    return;
  }
  switch (f.type) {
    case FrameType::kFleetEdit: {
      FleetEditRequest req = decode_fleet_edit_request(f.payload);
      try {
        const std::size_t n = fleet_->instance_size(req.instance);
        for (const inc::Edit& e : req.edits) {
          inc::validate_edit(e, n, "serve::Server");
        }
      } catch (const std::exception& e) {
        ++stats_.edit_frames_rejected;
        send_error_(c, e.what());
        return;
      }
      if (!req.edits.empty()) {
        if (durable_) {
          if (journal_failed_) {
            ++stats_.edit_frames_rejected;
            send_error_(c, "journal unavailable, edits disabled: " + journal_error_);
            return;
          }
          try {
            prof::Scope prof_scope("serve/journal_append");
            const u64 before = journal_.bytes();
            journal_.append(util::FleetJournalRecord{req.instance,
                                                     fleet_->epoch(req.instance), req.edits});
            prof::charge_bytes(journal_.bytes() - before);
          } catch (const std::exception& e) {
            journal_failed_ = true;
            journal_error_ = e.what();
            ++stats_.edit_frames_rejected;
            send_error_(c, "journal unavailable, edits disabled: " + journal_error_);
            return;
          }
        }
        stats_.edits_accepted += req.edits.size();
        edits_since_checkpoint_ += req.edits.size();
        fleet_batch_.reserve(fleet_batch_.size() + req.edits.size());
        for (const inc::Edit& e : req.edits) fleet_batch_.push_back({req.instance, e});
      }
      pending_acks_.push_back(
          {c.fd, static_cast<u32>(req.edits.size()), /*fleet=*/true, req.instance});
      return;  // ack deferred to the epoch flush, carrying the instance epoch
    }
    case FrameType::kFleetView: {
      const u64 instance = decode_fleet_view_request(f.payload);
      flush();
      try {
        const core::PartitionView v = fleet_->view(instance);
        PayloadWriter w;
        w.put_u64(v.epoch());
        w.put_u32(static_cast<u32>(v.size()));
        w.put_u32(v.num_classes());
        send_frame_(c, FrameType::kViewInfo, w.str());
      } catch (const std::exception& e) {
        send_error_(c, e.what());
      }
      return;
    }
    case FrameType::kEdit: {
      std::vector<inc::Edit> edits = decode_edit_request(f.payload);
      try {
        for (const inc::Edit& e : edits) {
          inc::validate_edit(e, engine_->size(), "serve::Server");
        }
      } catch (const std::invalid_argument& e) {
        // Whole frame rejected before any journaling: accepted batches are
        // all-or-nothing, so the journal never carries a half-good frame.
        ++stats_.edit_frames_rejected;
        send_error_(c, e.what());
        return;
      }
      if (!edits.empty()) {
        if (durable_) {
          if (journal_failed_) {
            ++stats_.edit_frames_rejected;
            send_error_(c, "journal unavailable, edits disabled: " + journal_error_);
            return;
          }
          try {
            prof::Scope prof_scope("serve/journal_append");
            const u64 before = journal_.bytes();
            journal_.append(util::JournalRecord{engine_->epoch(), edits});
            prof::charge_bytes(journal_.bytes() - before);
          } catch (const std::exception& e) {
            // append() rolled the partial record back, so the log on disk is
            // intact — but the device is refusing writes (ENOSPC and
            // friends).  Durability can no longer be promised, so stop
            // accepting edits server-wide instead of treating this as a
            // broken connection: an acked edit must never outrun the log.
            journal_failed_ = true;
            journal_error_ = e.what();
            ++stats_.edit_frames_rejected;
            send_error_(c, "journal unavailable, edits disabled: " + journal_error_);
            return;
          }
        }
        stats_.edits_accepted += edits.size();
        edits_since_checkpoint_ += edits.size();
        batch_.insert(batch_.end(), edits.begin(), edits.end());
      }
      pending_acks_.push_back({c.fd, static_cast<u32>(edits.size())});
      return;  // ack deferred to the epoch flush
    }
    case FrameType::kView: {
      flush();
      PayloadWriter w;
      w.put_u64(served_view_.epoch());
      w.put_u32(static_cast<u32>(served_view_.size()));
      w.put_u32(served_view_.num_classes());
      send_frame_(c, FrameType::kViewInfo, w.str());
      return;
    }
    case FrameType::kClassOf: {
      PayloadReader r(f.payload);
      const u32 node = r.get_u32("node");
      r.expect_end("ClassOf frame");
      flush();
      if (node >= served_view_.size()) {
        send_error_(c, "node " + std::to_string(node) + " out of range (n = " +
                           std::to_string(served_view_.size()) + ")");
        return;
      }
      PayloadWriter w;
      w.put_u64(served_view_.epoch());
      w.put_u32(served_view_.class_of(node));
      send_frame_(c, FrameType::kClass, w.str());
      return;
    }
    case FrameType::kMembers: {
      PayloadReader r(f.payload);
      const u32 cls = r.get_u32("class id");
      r.expect_end("Members frame");
      flush();
      if (cls >= served_view_.num_classes()) {
        send_error_(c, "class " + std::to_string(cls) + " out of range (classes = " +
                           std::to_string(served_view_.num_classes()) + ")");
        return;
      }
      const std::span<const u32> members = served_view_.class_members(cls);
      PayloadWriter w;
      w.put_u64(served_view_.epoch());
      w.put_u32(static_cast<u32>(members.size()));
      for (u32 x : members) w.put_u32(x);
      send_frame_(c, FrameType::kMembersData, w.str());
      return;
    }
    case FrameType::kLabels: {
      flush();
      const std::span<const u32> labels = served_view_.labels();
      PayloadWriter w;
      w.put_u64(served_view_.epoch());
      w.put_u32(served_view_.num_classes());
      w.put_u32(static_cast<u32>(labels.size()));
      for (u32 l : labels) w.put_u32(l);
      send_frame_(c, FrameType::kLabelsData, w.str());
      return;
    }
    case FrameType::kStats: {
      flush();
      send_frame_(c, FrameType::kStatsData, encode_stats_());
      return;
    }
    case FrameType::kCheckpoint: {
      PayloadReader r(f.payload);
      const u32 len = r.get_u32("path length");
      const std::string path(r.get_bytes(len, "path"));
      r.expect_end("Checkpoint frame");
      flush();
      try {
        if (!do_checkpoint_(path)) {
          send_error_(c, engine_->checkpointable()
                             ? "no checkpoint path configured"
                             : "engine '" + std::string(engine_->kind()) +
                                   "' is not checkpointable");
          return;
        }
      } catch (const std::exception& e) {
        send_error_(c, e.what());
        return;
      }
      PayloadWriter w;
      w.put_u64(engine_->epoch());
      send_frame_(c, FrameType::kOk, w.str());
      return;
    }
    case FrameType::kSubscribe: {
      c.subscribed = true;
      PayloadWriter w;
      w.put_u64(served_view_.epoch());
      send_frame_(c, FrameType::kOk, w.str());
      return;
    }
    default:
      send_error_(c, "unexpected frame type " + std::string(frame_type_name(f.type)) +
                         " from client");
      return;
  }
}

// ---- epoch batching ------------------------------------------------------

void Server::flush() {
  if (fleet_ != nullptr) {
    if (!fleet_batch_.empty()) {
      {
        prof::Scope prof_scope("serve/epoch_apply");
        prof::charge_bytes(17 * fleet_batch_.size());  // instance + wire edit per entry
        fleet_->apply_batch(fleet_batch_);
      }
      fleet_batch_.clear();
      if (durable_) {
        prof::Scope prof_scope("serve/journal_fsync");
        journal_.sync_epoch();
      }
      ++stats_.epochs_flushed;
    }
  } else if (!batch_.empty()) {
    {
      prof::Scope prof_scope("serve/epoch_apply");
      prof::charge_bytes(9 * batch_.size());  // one wire edit record per entry
      engine_->apply(batch_);
    }
    batch_.clear();
    if (durable_) {
      prof::Scope prof_scope("serve/journal_fsync");
      journal_.sync_epoch();
    }
    ++stats_.epochs_flushed;
    inc::ViewDelta vd;
    {
      prof::Scope prof_scope("serve/view_advance");
      vd = refresh_served_view_();
    }
    {
      prof::Scope prof_scope("serve/notify");
      notify_subscribers_(vd);
    }
    maybe_autocheckpoint_();
  }
  if (!pending_acks_.empty()) {
    // Swap out first: send_frame_ can mark connections dead, and acks must
    // not re-enter this flush.
    std::vector<PendingAck> acks;
    acks.swap(pending_acks_);
    for (const PendingAck& a : acks) {
      Connection* c = find_(a.fd);
      if (c == nullptr || c->closing) continue;
      PayloadWriter w;
      // Fleet acks carry the addressed instance's epoch after the flush.
      w.put_u64(a.fleet ? fleet_->epoch(a.instance) : engine_->epoch());
      w.put_u32(a.accepted);
      send_frame_(*c, FrameType::kEdited, w.str());
    }
  }
}

inc::ViewDelta Server::refresh_served_view_() {
  served_view_ = engine_->view();
  return engine_->take_view_delta();
}

void Server::notify_subscribers_(const inc::ViewDelta& vd) {
  if (!vd.full && vd.nodes.empty()) return;  // no published change
  bool any = false;
  for (const auto& c : conns_) {
    if (c->subscribed && !c->closing) {
      any = true;
      break;
    }
  }
  if (!any) return;

  std::vector<u32> classes;
  if (!vd.full) {
    classes.reserve(vd.nodes.size());
    for (u32 x : vd.nodes) classes.push_back(served_view_.class_of(x));
    std::sort(classes.begin(), classes.end());
    classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
  }
  const std::string payload = encode_notify(served_view_.epoch(), vd.full, classes);
  for (const auto& c : conns_) {
    if (c->subscribed && !c->closing) {
      send_frame_(*c, FrameType::kNotify, payload);
      prof::charge_bytes(payload.size());
      ++stats_.notifications_sent;
    }
  }
}

// ---- durability ----------------------------------------------------------

bool Server::checkpoint(const std::string& path) {
  flush();
  return do_checkpoint_(path);
}

bool Server::do_checkpoint_(const std::string& path) {
  // Fleet mode has no single global checkpoint; instances checkpoint
  // individually through warm/cold tiering (FleetConfig::spill_dir).
  if (fleet_ != nullptr) return false;
  const std::string target = path.empty() ? opt_.checkpoint_path : path;
  if (target.empty() || !engine_->checkpointable()) return false;
  // Durable write (fsync file + directory): the journal reset below must
  // never outrun the checkpoint on disk, or a crash loses every edit since
  // the previous checkpoint.
  util::atomic_write_file(
      target, [&](std::ostream& os) { engine_->save_checkpoint(os); }, /*durable=*/true);
  ++stats_.checkpoints_written;
  if (durable_ && target == opt_.checkpoint_path) {
    // The checkpoint now durably carries everything the log did.  A crash
    // between the two is safe: replay skips records the checkpoint absorbed
    // (their pre-batch epoch is below the checkpoint's).
    journal_.reset();
    edits_since_checkpoint_ = 0;
  }
  return true;
}

void Server::maybe_autocheckpoint_() {
  if (fleet_ != nullptr) return;
  if (opt_.checkpoint_every == 0 || edits_since_checkpoint_ < opt_.checkpoint_every) return;
  if (!engine_->checkpointable() || opt_.checkpoint_path.empty()) return;
  do_checkpoint_("");
}

// ---- stats ---------------------------------------------------------------

std::string Server::encode_stats_() const {
  const ServeStats sv = stats();
  if (fleet_ != nullptr) {
    const fleet::FleetStats fs = fleet_->stats();
    PayloadWriter w;
    const std::vector<std::pair<std::string_view, u64>> kv = {
        {"connections_open", sv.connections_open},
        {"connections_accepted", sv.connections_accepted},
        {"frames_served", sv.frames_served},
        {"edits_accepted", sv.edits_accepted},
        {"edit_frames_rejected", sv.edit_frames_rejected},
        {"epochs_flushed", sv.epochs_flushed},
        {"journal_records", sv.journal_records},
        {"journal_bytes", sv.journal_bytes},
        {"journal_fsyncs", sv.journal_fsyncs},
        {"recovered_records", sv.recovered_records},
        {"recovered_skipped", sv.recovered_skipped},
        {"journal_tail_torn", sv.journal_tail_torn ? 1u : 0u},
        {"journal_failed", sv.journal_failed ? 1u : 0u},
        {"fleet_instances", fs.instances},
        {"fleet_warm", fs.warm},
        {"fleet_cold", fs.cold},
        {"fleet_warm_bytes", fs.warm_bytes},
        {"fleet_routes", fs.routes},
        {"fleet_faults", fs.faults},
        {"fleet_evictions", fs.evictions},
        {"fleet_cold_batches", fs.cold_batches},
        {"fleet_batched_cold_instances", fs.batched_cold_instances},
        {"fleet_oversized_rejects", fs.oversized_rejects},
        {"fleet_edits", fs.edits},
        {"fleet_views", fs.views},
        {"fleet_arena_bytes", fs.arena_bytes},
        {"fleet_arena_blocks", fs.arena_blocks},
    };
    w.put_u32(static_cast<u32>(kv.size()));
    for (const auto& [key, value] : kv) {
      w.put_u8(static_cast<u8>(key.size()));
      w.put_bytes(key.data(), key.size());
      w.put_u64(value);
    }
    append_profile_section(w, prof::session_snapshot());
    return w.take();
  }
  const EngineStats es = engine_->serving_stats();
  PayloadWriter w;
  std::vector<std::pair<std::string_view, u64>> kv = {
      {"epoch", engine_->epoch()},
      {"n", engine_->size()},
      {"num_classes", served_view_.num_classes()},
      {"connections_open", sv.connections_open},
      {"connections_accepted", sv.connections_accepted},
      {"frames_served", sv.frames_served},
      {"edits_accepted", sv.edits_accepted},
      {"edit_frames_rejected", sv.edit_frames_rejected},
      {"epochs_flushed", sv.epochs_flushed},
      {"notifications_sent", sv.notifications_sent},
      {"checkpoints_written", sv.checkpoints_written},
      {"journal_records", sv.journal_records},
      {"journal_bytes", sv.journal_bytes},
      {"journal_fsyncs", sv.journal_fsyncs},
      {"recovered_records", sv.recovered_records},
      {"recovered_skipped", sv.recovered_skipped},
      {"journal_tail_torn", sv.journal_tail_torn ? 1u : 0u},
      {"journal_failed", sv.journal_failed ? 1u : 0u},
      {"engine_edits", es.edits.edits},
      {"engine_repairs", es.edits.repairs},
      {"engine_rebuilds", es.edits.rebuilds},
      {"delta_windows", es.deltas.windows},
      {"delta_full", es.deltas.full},
  };
  w.put_u32(static_cast<u32>(kv.size()));
  for (const auto& [key, value] : kv) {
    w.put_u8(static_cast<u8>(key.size()));
    w.put_bytes(key.data(), key.size());
    w.put_u64(value);
  }
  // Trailing, optional, and absent when empty: old clients that stop after
  // the counters never see it (see protocol.hpp).
  append_profile_section(w, es.profile);
  return w.take();
}

}  // namespace sfcp::serve
