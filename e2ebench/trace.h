// Instruments the benchmark keeps OUTSIDE the program: an in-memory span
// recorder, a timing/byte-counting decorator for client::UpdateSource,
// thread CPU clocks, and a daemon thread the benchmark owns. Nothing here
// changes how the libraries under src/ behave; spans wrap calls into
// their public functions from the benchmark's own code.
#pragma once

#include <pthread.h>
#include <time.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "client/socket_transport.h"
#include "daemon/daemon.h"

namespace e2e {

inline std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU seconds consumed so far by the thread behind `clock`.
inline double cpu_seconds(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline clockid_t cpu_clock_of(pthread_t thread) {
  clockid_t c{};
  if (pthread_getcpuclockid(thread, &c) != 0) return CLOCK_THREAD_CPUTIME_ID;
  return c;
}

inline clockid_t this_thread_cpu_clock() { return cpu_clock_of(pthread_self()); }

/// Layer boundaries the benchmark wraps. The op span is the root of each
/// op's tree; every other span is a call into one layer's public API.
enum class SpanName : std::uint8_t {
  kOp,            // one op (message, page, round, request)
  kSeal,          // core seal
  kOpen,          // core open
  kIssue,         // core issue_update
  kIssuePartial,  // threshold issue_partial
  kStorePut,      // daemon Store::put / put_partial
  kFetch,         // client fetch_verified / fetch_range_verified / fetch_threshold
  kTransport,     // one UpdateSource round trip (decorator)
  kCount
};

inline constexpr std::array<const char*, static_cast<size_t>(SpanName::kCount)>
    kSpanNames = {"op",           "core.seal",   "core.open",
                  "core.issue",   "threshold.issue_partial",
                  "daemon.store_put", "client.fetch", "client.transport"};

/// Per-thread span recorder. Spans nest strictly (one stack per thread);
/// each closed span is aggregated at once (count, total, self = total
/// minus children) and stored for the exit dump up to a fixed capacity,
/// so metrics never depend on the capacity.
class Tracer {
 public:
  struct Record {
    std::uint64_t op;
    std::uint32_t id;
    std::uint32_t parent;  // 0 = root
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    SpanName name;
  };
  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };

  explicit Tracer(size_t capacity = size_t{1} << 17) : capacity_(capacity) {}

  /// Recording switch: spans opened while off cost one branch.
  void enable(bool on) { on_ = on; }
  bool enabled() const { return on_; }
  void begin_op(std::uint64_t op) { op_ = op; }

  class Scope {
   public:
    Scope(Tracer* t, SpanName name) : t_(t != nullptr && t->on_ ? t : nullptr) {
      if (t_ != nullptr) t_->open(name);
    }
    ~Scope() {
      if (t_ != nullptr) t_->close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
  };

  const std::array<Totals, static_cast<size_t>(SpanName::kCount)>& totals() const {
    return totals_;
  }
  const std::vector<Record>& records() const { return records_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  struct Open {
    std::uint32_t id;
    SpanName name;
    std::uint64_t start;
    std::uint64_t child_ns;
  };

  void open(SpanName name) {
    stack_.push_back(Open{++next_id_, name, mono_ns(), 0});
  }
  void close() {
    const std::uint64_t end = mono_ns();
    Open o = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = end - o.start;
    Totals& t = totals_[static_cast<size_t>(o.name)];
    t.count += 1;
    t.total_ns += dur;
    t.self_ns += dur - std::min(dur, o.child_ns);
    const std::uint32_t parent = stack_.empty() ? 0 : stack_.back().id;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (records_.size() < capacity_) {
      if (records_.capacity() == 0) records_.reserve(capacity_);
      records_.push_back(Record{op_, o.id, parent, o.start, end, o.name});
    } else {
      ++dropped_;
    }
  }

  bool on_ = false;
  size_t capacity_;
  std::uint64_t op_ = 0;
  std::uint32_t next_id_ = 0;
  std::vector<Open> stack_;
  std::vector<Record> records_;
  std::uint64_t dropped_ = 0;
  std::array<Totals, static_cast<size_t>(SpanName::kCount)> totals_{};
};

/// client::UpdateSource decorator: forwards to a SocketTransport and, while
/// a tracer is attached, times and byte-counts each round trip at the
/// seam. The reply callback runs after the timed round trip returns, so
/// the fetcher's parse and pairing work never lands in transport time.
/// Bytes are payload bytes at the seam (request tag or cursor out, reply
/// items in); the 10-byte frame headers are not visible here.
class TracedSource final : public tre::client::UpdateSource {
 public:
  struct Counts {
    std::uint64_t requests = 0;
    std::uint64_t items = 0;  // update / partial wire items delivered
    std::uint64_t bytes = 0;
    std::uint64_t ns = 0;

    Counts& operator+=(const Counts& o) {
      requests += o.requests;
      items += o.items;
      bytes += o.bytes;
      ns += o.ns;
      return *this;
    }
    Counts operator-(const Counts& o) const {
      return {requests - o.requests, items - o.items, bytes - o.bytes, ns - o.ns};
    }
  };

  explicit TracedSource(tre::client::SocketTransport& inner) : inner_(inner) {}

  void attach(Tracer* tracer) { tracer_ = tracer; }
  const Counts& counts() const { return counts_; }

  size_t mirror_count() const override { return inner_.mirror_count(); }

  void request(size_t idx, const std::string& tag,
               std::function<void(tre::Bytes)> on_reply) override {
    std::optional<tre::Bytes> got;
    {
      Timed t(*this, tag.size());
      inner_.request(idx, tag, [&got](tre::Bytes b) { got = std::move(b); });
      if (got) t.delivered(1, got->size());
    }
    if (got) on_reply(std::move(*got));
  }

  std::optional<tre::client::RangePage> request_range(
      size_t idx, std::uint64_t start, std::uint32_t max_count) override {
    Timed t(*this, 12);  // be64 start + be32 count
    std::optional<tre::client::RangePage> page =
        inner_.request_range(idx, start, max_count);
    if (page) {
      std::uint64_t bytes = 0;
      for (const tre::Bytes& u : page->updates) bytes += u.size();
      t.delivered(page->updates.size(), bytes);
    }
    return page;
  }

  std::optional<tre::Bytes> request_partial(size_t idx,
                                            const std::string& tag) override {
    Timed t(*this, tag.size());
    std::optional<tre::Bytes> wire = inner_.request_partial(idx, tag);
    if (wire) t.delivered(1, wire->size());
    return wire;
  }

 private:
  class Timed {
   public:
    Timed(TracedSource& s, std::uint64_t sent)
        : s_(s.tracer_ != nullptr && s.tracer_->enabled() ? &s : nullptr),
          span_(s_ != nullptr ? s.tracer_ : nullptr, SpanName::kTransport),
          start_(s_ != nullptr ? mono_ns() : 0),
          sent_(sent) {}
    ~Timed() {
      if (s_ == nullptr) return;
      s_->counts_.requests += 1;
      s_->counts_.bytes += sent_;
      s_->counts_.ns += mono_ns() - start_;
    }
    void delivered(std::uint64_t items, std::uint64_t bytes) {
      if (s_ == nullptr) return;
      s_->counts_.items += items;
      s_->counts_.bytes += bytes;
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    TracedSource* s_;
    Tracer::Scope span_;
    std::uint64_t start_;
    std::uint64_t sent_;
  };

  tre::client::SocketTransport& inner_;
  Tracer* tracer_ = nullptr;
  Counts counts_;
};

/// A tred event loop on a thread the benchmark owns, so its CPU clock can
/// be read. Stops and joins on destruction.
class DaemonThread {
 public:
  explicit DaemonThread(std::shared_ptr<tre::daemon::Store> store)
      : daemon_(std::move(store), tre::daemon::DaemonConfig{}),
        thread_([this] {
          try {
            daemon_.run();
          } catch (const std::exception& e) {
            std::fprintf(stderr, "e2e: daemon loop failed: %s\n", e.what());
            crashed_.store(true);
          }
        }),
        cpu_(cpu_clock_of(thread_.native_handle())) {}
  ~DaemonThread() {
    daemon_.stop();
    thread_.join();
  }
  DaemonThread(const DaemonThread&) = delete;
  DaemonThread& operator=(const DaemonThread&) = delete;

  std::uint16_t port() const { return daemon_.port(); }
  clockid_t cpu_clock() const { return cpu_; }
  bool crashed() const { return crashed_.load(); }

 private:
  tre::daemon::Daemon daemon_;
  std::atomic<bool> crashed_{false};
  std::thread thread_;
  clockid_t cpu_;
};

}  // namespace e2e
