#include "daemon/daemon.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>

namespace tre::daemon {

namespace {

/// Updates per kGetRange reply, whatever the request asks for.
constexpr std::uint32_t kMaxRangeItems = 512;
/// Slow-consumer cutoff: a connection whose unsent replies pass this is
/// closed.
constexpr size_t kMaxOutbufBytes = 4 * kMaxPayload;
/// poll(2) timeout: the cadence of the idle sweep and the rate gauge.
constexpr int kTickMs = 100;

std::int64_t monotonic_ms() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return std::int64_t{ts.tv_sec} * 1000 + ts.tv_nsec / 1000000;
}

std::uint64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return std::uint64_t(ts.tv_sec) * 1000000000u + std::uint64_t(ts.tv_nsec);
}

void set_nonblocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// Fleet-wide telemetry, one set of probes shared by every instance (the
// fetcher-probes pattern). Gauges are always-on instruments resolved from
// the global registry directly — there is no GaugeProbe.
struct DaemonProbes {
  obs::CounterProbe accepted{"daemon.accepted"};
  obs::CounterProbe shed{"daemon.shed"};
  obs::CounterProbe idle_closed{"daemon.idle_closed"};
  obs::CounterProbe requests{"daemon.requests"};
  obs::CounterProbe bad_frames{"daemon.bad_frames"};
  obs::CounterProbe error_replies{"daemon.error_replies"};
  obs::HistogramProbe request_ns{"daemon.request_ns"};
};

DaemonProbes& probes() {
  static DaemonProbes p;
  return p;
}

}  // namespace

Daemon::Daemon(std::shared_ptr<Store> store, DaemonConfig config)
    : store_(std::move(store)), cfg_(std::move(config)) {
  require(store_ != nullptr, "Daemon: null store");
  require(cfg_.max_conns > 0, "Daemon: max_conns must be positive");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  require(listen_fd_ >= 0, "Daemon: socket() failed");

  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  if (::inet_pton(AF_INET, cfg_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    require(false, "Daemon: bad bind address");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, cfg_.listen_backlog) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    require(false, "Daemon: bind/listen failed");
  }
  socklen_t alen = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);

  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    require(false, "Daemon: pipe() failed");
  }
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];
  set_nonblocking(wake_rd_);
  set_nonblocking(wake_wr_);
}

Daemon::~Daemon() {
  for (auto& c : conns_) {
    if (c && c->fd >= 0) ::close(c->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
}

void Daemon::stop() {
  stop_requested_.store(true, std::memory_order_release);
  // Self-pipe: one byte wakes poll() even from another thread or a signal
  // handler (write(2) is async-signal-safe). EAGAIN just means a wakeup
  // is already pending.
  const std::uint8_t b = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_wr_, &b, 1);
}

Daemon::Stats Daemon::stats() const {
  Stats s;
  s.accepted = accepted_.value();
  s.shed = shed_.value();
  s.idle_closed = idle_closed_.value();
  s.requests = requests_.value();
  s.bad_frames = bad_frames_.value();
  s.error_replies = error_replies_.value();
  s.open_conns = open_conns_.value();
  return s;
}

void Daemon::run() {
  std::vector<pollfd> pfds;
  rate_window_start_ms_ = monotonic_ms();
  rate_window_requests_ = 0;

  while (!stop_requested_.load(std::memory_order_acquire)) {
    pfds.clear();
    pfds.push_back({wake_rd_, POLLIN, 0});
    // Keep accepting even at the cap: shedding means telling the peer
    // "overloaded" and closing, which is kinder than letting its SYN rot.
    pfds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& c : conns_) {
      short events = POLLIN;
      if (c->out_off < c->out.size()) events |= POLLOUT;
      pfds.push_back({c->fd, events, 0});
    }
    // accept_ready below grows conns_ mid-iteration; only the first
    // `polled` entries have pollfds, so the walk must stop there.
    const size_t polled = conns_.size();

    int rc = ::poll(pfds.data(), pfds.size(), kTickMs);
    if (rc < 0 && errno != EINTR) break;  // poll itself failed: give up

    const std::int64_t now = monotonic_ms();

    if (rc > 0) {
      if (pfds[0].revents & POLLIN) {
        std::uint8_t drain[64];
        while (::read(wake_rd_, drain, sizeof(drain)) > 0) {}
      }
      if (pfds[1].revents & POLLIN) accept_ready(now);

      // Walk connections back to front so close_conn's swap-and-pop never
      // disturbs an index we have yet to visit. (A close may swap a
      // just-accepted, unpolled conn into slot i; it is simply not
      // visited until the next cycle.)
      for (size_t i = polled; i-- > 0;) {
        const pollfd& p = pfds[2 + i];
        Conn& c = *conns_[i];
        bool alive = true;
        if (p.revents & (POLLERR | POLLHUP | POLLNVAL)) alive = false;
        if (alive && (p.revents & POLLIN)) alive = read_ready(c, now);
        if (alive && (p.revents & POLLOUT)) alive = write_ready(c, now);
        if (!alive) close_conn(i);
      }
    }

    sweep_idle(now);
    update_rates(now);
  }

  // Drain: close everything so a restarted daemon starts clean.
  for (size_t i = conns_.size(); i-- > 0;) close_conn(i);
  update_rates(monotonic_ms());
}

void Daemon::accept_ready(std::int64_t now_ms) {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient: poll will re-arm
    set_nonblocking(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    if (conns_.size() >= cfg_.max_conns) {
      // Graceful shed: a best-effort error frame, then close. The frame
      // is small enough to fit a fresh socket buffer, so the blocking-
      // free write either lands whole or the peer just sees the close.
      // Counted before the peer can see the close, so a client that
      // observes the shed also observes it in stats().
      shed_.add();
      error_replies_.add();
      probes().shed.add();
      probes().error_replies.add();
      Bytes frame = encode_frame(
          FrameType::kError, encode_error(Errc::kOverloaded, "connection cap"));
      [[maybe_unused]] ssize_t n = ::send(fd, frame.data(), frame.size(),
                                          MSG_NOSIGNAL | MSG_DONTWAIT);
      ::close(fd);
      continue;
    }

    auto conn = std::make_unique<Conn>(kMaxRequestPayload);
    conn->fd = fd;
    conn->last_activity_ms = now_ms;
    conns_.push_back(std::move(conn));
    accepted_.add();
    probes().accepted.add();
    open_conns_.set(static_cast<std::int64_t>(conns_.size()));
    obs::Registry::global().gauge("daemon.conns")
        .set(static_cast<std::int64_t>(conns_.size()));
  }
}

bool Daemon::read_ready(Conn& c, std::int64_t now_ms) {
  std::uint8_t buf[16384];
  for (;;) {
    ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n == 0) return false;  // peer closed
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    c.last_activity_ms = now_ms;
    c.reader.feed(ByteSpan(buf, static_cast<size_t>(n)));
    while (auto frame = c.reader.next()) {
      handle_frame(c, std::move(*frame));
      if (c.close_after_flush) break;
    }
    if (c.reader.broken()) {
      // Framing damage is data, not an exception: tell the peer why,
      // flush, close. The reader already stopped consuming.
      bad_frames_.add();
      probes().bad_frames.add();
      Errc code = c.reader.error() == FrameError::kBadVersion
                      ? Errc::kUnsupportedVersion
                      : Errc::kMalformed;
      enqueue_error(c, code, frame_error_name(c.reader.error()));
      c.close_after_flush = true;
      break;
    }
    if (c.close_after_flush) break;
  }
  // A connection marked for close with nothing left to flush dies now.
  if (c.close_after_flush && c.out_off >= c.out.size()) return false;
  if (c.out.size() - c.out_off > kMaxOutbufBytes) return false;  // hog
  // Opportunistic flush so small replies do not wait one poll cycle.
  if (c.out_off < c.out.size()) return write_ready(c, now_ms);
  return true;
}

bool Daemon::write_ready(Conn& c, std::int64_t now_ms) {
  while (c.out_off < c.out.size()) {
    ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    c.out_off += static_cast<size_t>(n);
    c.last_activity_ms = now_ms;
  }
  // Fully flushed: compact, and honor a deferred close.
  c.out.clear();
  c.out_off = 0;
  return !c.close_after_flush;
}

void Daemon::handle_frame(Conn& c, Frame frame) {
  const std::uint64_t t0 = monotonic_ns();
  requests_.add();
  rate_window_requests_++;
  probes().requests.add();

  switch (frame.type) {
    case FrameType::kPing:
      enqueue(c, FrameType::kPong, frame.payload);
      break;

    case FrameType::kGetKey: {
      auto [set_name, pub] = store_->server_key();
      if (pub.empty()) {
        enqueue_error(c, Errc::kNotFound, "no server key configured");
      } else {
        enqueue(c, FrameType::kKeyReply, encode_key_reply(set_name, pub));
      }
      break;
    }

    case FrameType::kGetUpdate: {
      std::string_view tag(reinterpret_cast<const char*>(frame.payload.data()),
                           frame.payload.size());
      if (tag.empty()) {
        enqueue_error(c, Errc::kMalformed, "empty tag");
        break;
      }
      if (auto wire = store_->find(tag)) {
        enqueue(c, FrameType::kUpdateReply, *wire);
      } else {
        enqueue_error(c, Errc::kNotFound, "tag not archived");
      }
      break;
    }

    case FrameType::kGetPartial: {
      std::string_view tag(reinterpret_cast<const char*>(frame.payload.data()),
                           frame.payload.size());
      if (tag.empty()) {
        enqueue_error(c, Errc::kMalformed, "empty tag");
        break;
      }
      if (auto wire = store_->find_partial(tag)) {
        enqueue(c, FrameType::kPartialReply, *wire);
      } else {
        enqueue_error(c, Errc::kNotFound, "no partial for tag");
      }
      break;
    }

    case FrameType::kGetRange: {
      auto req = try_parse_get_range(frame.payload);
      if (!req) {
        enqueue_error(c, Errc::kMalformed, "bad range request");
        break;
      }
      const std::uint32_t capped = std::min(req->max_count, kMaxRangeItems);
      Store::RangeView view = store_->range(req->start, capped, kMaxPayload);
      enqueue(c, FrameType::kRangeReply,
              encode_range_reply(view.total, req->start, view.updates));
      break;
    }

    default:
      // A syntactically valid frame the SERVER has no business receiving
      // (a reply type, kError). Not framing damage — answer and move on.
      enqueue_error(c, Errc::kMalformed, "not a request frame");
      break;
  }

  probes().request_ns.record(monotonic_ns() - t0);
}

void Daemon::enqueue(Conn& c, FrameType type, ByteSpan payload) {
  Bytes frame = encode_frame(type, payload);
  c.out.insert(c.out.end(), frame.begin(), frame.end());
}

void Daemon::enqueue_error(Conn& c, Errc code, std::string_view message) {
  enqueue(c, FrameType::kError, encode_error(code, message));
  error_replies_.add();
  probes().error_replies.add();
}

void Daemon::sweep_idle(std::int64_t now_ms) {
  if (cfg_.idle_timeout_ms <= 0) return;
  for (size_t i = conns_.size(); i-- > 0;) {
    if (now_ms - conns_[i]->last_activity_ms >= cfg_.idle_timeout_ms) {
      idle_closed_.add();
      probes().idle_closed.add();
      close_conn(i);
    }
  }
}

void Daemon::update_rates(std::int64_t now_ms) {
  open_conns_.set(static_cast<std::int64_t>(conns_.size()));
  obs::Registry::global().gauge("daemon.conns")
      .set(static_cast<std::int64_t>(conns_.size()));
  const std::int64_t elapsed = now_ms - rate_window_start_ms_;
  if (elapsed >= 1000) {
    obs::Registry::global().gauge("daemon.rps")
        .set(static_cast<std::int64_t>(rate_window_requests_ * 1000 /
                                       static_cast<std::uint64_t>(elapsed)));
    rate_window_start_ms_ = now_ms;
    rate_window_requests_ = 0;
  }
}

void Daemon::close_conn(size_t idx) {
  ::close(conns_[idx]->fd);
  conns_[idx] = std::move(conns_.back());
  conns_.pop_back();
  open_conns_.set(static_cast<std::int64_t>(conns_.size()));
}

}  // namespace tre::daemon
