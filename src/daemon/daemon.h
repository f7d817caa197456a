// tred — the networked time-server daemon.
//
// The paper's server is PASSIVE: one self-authenticating broadcast per
// epoch, no per-user state, no interaction. What a deployment still
// needs is the read side — millions of receivers polling for the epoch
// update the moment a release time passes ("midnight storm"). tred is
// that read path as a real listening service:
//
//   * one poll(2) event loop, every socket non-blocking — thousands of
//     concurrent connections on one core, no thread-per-connection;
//   * length-framed request/response (daemon/frame.h): key updates,
//     archive range catch-up, the server public key, ping;
//   * per-connection read/write buffering with backpressure caps;
//   * idle timeouts — a receiver that polls once a day does not pin a
//     file descriptor forever;
//   * a connection cap with GRACEFUL shedding: connections beyond the
//     cap get a kError(kOverloaded) frame and a clean close, so a
//     storming client backs off instead of hanging in SYN purgatory;
//   * hostile-input discipline: a garbage frame is data, not an
//     exception — the reader latches, the peer gets kError(kMalformed),
//     the connection dies, the loop never unwinds (frame.h contract).
//
// Observability: daemon.conns / daemon.rps gauges, accepted/shed/
// idle-closed/request counters and a request-latency histogram
// (daemon.request_ns) in the global registry; stats() gives the same
// counts for this instance.
//
// Threading: run() owns every socket and runs on ONE thread. stop() is
// thread- and signal-safe (atomic flag + self-pipe wakeup). The Store is
// shared and internally locked, so a publisher thread can keep appending
// epoch updates while the loop serves.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "daemon/frame.h"
#include "daemon/store.h"
#include "obs/metrics.h"

namespace tre::daemon {

struct DaemonConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;            ///< 0 = ephemeral; see Daemon::port()
  size_t max_conns = 4096;           ///< cap; beyond it, shed gracefully
  std::int64_t idle_timeout_ms = 30000;
  int listen_backlog = 1024;
};

class Daemon {
 public:
  /// Binds and listens immediately (so port() is valid before run());
  /// throws tre::Error when the socket cannot be set up — environment
  /// failures at boot are NOT event-loop conditions.
  explicit Daemon(std::shared_ptr<Store> store, DaemonConfig config = {});
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// The bound port (the ephemeral one the kernel picked when
  /// config.port was 0).
  std::uint16_t port() const { return port_; }

  /// Serves until stop(). Call from the thread that owns the loop.
  void run();

  /// Thread- and signal-safe shutdown request; run() returns promptly.
  void stop();

  /// Point-in-time view of this instance's counters (the same events
  /// also fire the global daemon.* probes). Safe to call from any thread
  /// while run() serves.
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t shed = 0;          ///< connections refused at the cap
    std::uint64_t idle_closed = 0;
    std::uint64_t requests = 0;
    std::uint64_t bad_frames = 0;    ///< framing damage -> error + close
    std::uint64_t error_replies = 0; ///< kError frames sent (any cause)
    std::int64_t open_conns = 0;
  };
  Stats stats() const;

 private:
  struct Conn {
    int fd = -1;
    FrameReader reader;
    Bytes out;
    size_t out_off = 0;
    std::int64_t last_activity_ms = 0;
    bool close_after_flush = false;
    explicit Conn(size_t max_payload) : reader(max_payload) {}
  };

  void accept_ready(std::int64_t now_ms);
  bool read_ready(Conn& c, std::int64_t now_ms);   // false = close it
  bool write_ready(Conn& c, std::int64_t now_ms);  // false = close it
  void handle_frame(Conn& c, Frame frame);
  void enqueue(Conn& c, FrameType type, ByteSpan payload);
  void enqueue_error(Conn& c, Errc code, std::string_view message);
  void sweep_idle(std::int64_t now_ms);
  void update_rates(std::int64_t now_ms);
  void close_conn(size_t idx);

  std::shared_ptr<Store> store_;
  DaemonConfig cfg_;
  int listen_fd_ = -1;
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_requested_{false};
  std::vector<std::unique_ptr<Conn>> conns_;

  // Rate gauge bookkeeping (event-loop thread only).
  std::int64_t rate_window_start_ms_ = 0;
  std::uint64_t rate_window_requests_ = 0;

  // Instance accounting: relaxed atomics, because stats() may be read
  // from another thread while the loop writes them.
  obs::Counter accepted_;
  obs::Counter shed_;
  obs::Counter idle_closed_;
  obs::Counter requests_;
  obs::Counter bad_frames_;
  obs::Counter error_replies_;
  obs::Gauge open_conns_;
};

}  // namespace tre::daemon
