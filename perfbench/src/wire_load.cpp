#include "wire_load.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace perfbench {

using sfcp::serve::Frame;
using sfcp::serve::FrameType;

namespace {
[[noreturn]] void fail_sys(const char* what) {
  throw std::runtime_error(std::string("perfbench: ") + what + ": " + std::strerror(errno));
}
}  // namespace

WireConn::WireConn(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) fail_sys("socket");
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd_);
    errno = err;
    fail_sys("connect");
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  sfcp::serve::append_magic(out_);
  flush_out();
}

WireConn::~WireConn() {
  if (fd_ >= 0) ::close(fd_);
}

void WireConn::send(FrameType type, std::string_view payload, Pending p) {
  sfcp::serve::append_frame(out_, type, payload);
  pending_.push_back(p);
  flush_out();
}

void WireConn::flush_out() {
  while (out_off_ < out_.size()) {
    const ssize_t n = ::write(fd_, out_.data() + out_off_, out_.size() - out_off_);
    if (n > 0) {
      out_off_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    fail_sys("write");
  }
  out_.clear();
  out_off_ = 0;
}

bool WireConn::read_ready(const std::function<void(const Frame&, const Pending&)>& on_frame) {
  char buf[65536];
  bool open = true;
  for (;;) {
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      in_.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    open = false;
    break;
  }
  while (std::optional<Frame> f = in_.next()) {
    if (f->type == FrameType::kNotify) continue;
    if (pending_.empty()) throw std::runtime_error("perfbench: response without a request");
    const Pending p = pending_.front();
    pending_.pop_front();
    on_frame(*f, p);
  }
  return open;
}

bool poll_conns(std::vector<WireConn*>& conns, i64 timeout_ns,
                const std::function<void(const Frame&, const Pending&)>& on_frame) {
  std::vector<struct pollfd> pfds(conns.size());
  for (std::size_t i = 0; i < conns.size(); ++i) {
    pfds[i] = {conns[i]->fd(),
               static_cast<short>(POLLIN | (conns[i]->wants_write() ? POLLOUT : 0)), 0};
  }
  if (timeout_ns < 0) timeout_ns = 0;
  const struct timespec ts {static_cast<time_t>(timeout_ns / 1'000'000'000),
                            static_cast<long>(timeout_ns % 1'000'000'000)};
  const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
  if (ready < 0) {
    if (errno == EINTR) return true;
    fail_sys("ppoll");
  }
  bool open = true;
  for (std::size_t i = 0; i < conns.size() && ready > 0; ++i) {
    if (pfds[i].revents & POLLOUT) conns[i]->flush_out();
    if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) open &= conns[i]->read_ready(on_frame);
  }
  return open;
}

double run_closed_loop(WireConn& conn, std::size_t window, double seconds,
                       const std::function<bool()>& send_next,
                       const std::function<void(const Frame&, const Pending&)>& on_frame) {
  std::vector<WireConn*> conns{&conn};
  const i64 start = now_ns();
  const i64 end = start + static_cast<i64>(seconds * 1e9);
  bool more = true;
  while (more && now_ns() < end) {
    while (more && conn.outstanding() < window) {
      Span s("serve.send");
      more = send_next();
    }
    Span s("serve.await_ack");
    if (!poll_conns(conns, 5'000'000, on_frame)) throw std::runtime_error("perfbench: server closed");
  }
  while (conn.outstanding() > 0) {
    if (!poll_conns(conns, 5'000'000, on_frame)) throw std::runtime_error("perfbench: server closed");
  }
  return seconds_since(start);
}

bool run_open_loop(std::vector<OpenStream>& streams, std::vector<WireConn*>& conns, i64 end_ns,
                   i64 drain_ns, std::vector<double>& lag_us,
                   const std::function<void(const Frame&, const Pending&)>& on_frame) {
  for (;;) {
    const i64 now = now_ns();
    if (now >= end_ns) break;
    i64 next = end_ns;
    bool sent = false;
    for (OpenStream& s : streams) {
      if (s.next_ns <= now) {
        lag_us.push_back(static_cast<double>(now - s.next_ns) * 1e-3);
        s.send(s.next_ns);
        s.next_ns += s.interval_ns;
        sent = true;
      }
      next = std::min(next, s.next_ns);
    }
    // After sending, only take what is already readable; otherwise sleep in
    // poll until the next request falls due.
    if (!poll_conns(conns, sent ? 0 : next - now_ns(), on_frame)) return false;
  }
  const i64 deadline = now_ns() + drain_ns;
  auto outstanding = [&] {
    std::size_t total = 0;
    for (const WireConn* c : conns) total += c->outstanding();
    return total;
  };
  while (outstanding() > 0 && now_ns() < deadline) {
    if (!poll_conns(conns, 1'000'000, on_frame)) return false;
  }
  return outstanding() == 0;
}

ServerThread::ServerThread(std::filesystem::path dir, const Make& make) : dir_(std::move(dir)) {
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);
  server_ = make(dir_);
  loop_ = std::thread([s = server_.get()] { s->run(); });
}

ServerThread::~ServerThread() {
  server_->stop();
  loop_.join();
  server_.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

std::unordered_map<std::string, u64> stats_map(sfcp::serve::Client& c) {
  std::unordered_map<std::string, u64> m;
  for (auto& [k, v] : c.stats()) m[k] = v;
  return m;
}

void ServingRounds::add(double capacity, const std::vector<double>& write_us,
                        const std::vector<double>& read_us) {
  throughput_.push_back(capacity);
  write_us_.push_back(write_us);
  read_us_.push_back(read_us);
}

namespace {
/// Quantile q of a per-round latency series: median of the rounds' values,
/// or of all samples pooled when some round has fewer than `min_samples`.
double round_quantile(std::vector<std::vector<double>>& rounds, double q,
                      std::size_t min_samples) {
  std::vector<double> pooled, per_round;
  bool enough = true;
  for (std::vector<double>& r : rounds) {
    enough = enough && r.size() >= min_samples;
    pooled.insert(pooled.end(), r.begin(), r.end());
    per_round.push_back(quantile(r, q));
  }
  return enough ? median(per_round) : quantile(pooled, q);
}
}  // namespace

void ServingRounds::report(Report& r) {
  r.add("throughput_per_s", median(throughput_), "1/s");
  r.add("write_p50_us", round_quantile(write_us_, 0.50, kMinRoundSamples), "us");
  r.add("read_p50_us", round_quantile(read_us_, 0.50, kMinRoundSamples), "us");
}

}  // namespace perfbench
