// Low-overhead observability: named instruments, scoped spans, JSON export.
//
// Two layers, both compiled into every build:
//
//   * Instruments (`Counter`, `Gauge`, `Histogram`) and the `Registry`
//     that names them. Updates are relaxed atomics: lock-free, no
//     ordering, safe under concurrent readers/writers (TSan-clean by
//     construction). A component whose per-instance numbers are read
//     across threads (`daemon::Daemon::stats()`) holds bare `Counter` /
//     `Gauge` members; single-threaded components keep a plain `Stats`
//     struct.
//
//   * Probes (`CounterProbe`, `HistogramProbe`, `Span`) are the telemetry
//     hooks threaded through the hot paths. They resolve a name in the
//     GLOBAL registry once (cached in a handle) and then cost one relaxed
//     atomic add — or, for `Span`, one clock read at each end plus a
//     thread-local batch update (docs/OBSERVABILITY.md prices both).
//
// Span aggregation: a Span records elapsed nanoseconds into a histogram
// through a thread-local batch (per-thread bucket deltas for the most
// recently used histogram). The hot path therefore touches no shared
// cache line at all on most records; the batch flushes to the shared
// atomics every kSpanFlushEvery records, when the thread switches
// histograms, at thread exit, and whenever the calling thread snapshots
// the registry. Cross-thread snapshots may lag by at most one batch.
// Histograms used with Span must outlive recording threads; the global
// registry is intentionally leaked so thread-exit flushes are always
// safe.
//
// Buckets are log₂: bucket b counts values v with bit_width(v) == b,
// i.e. [2^(b-1), 2^b); bucket 0 counts v == 0. Quantiles reported by
// to_json are bucket upper bounds (at most 2x the true value — the
// standard trade for fixed-size lock-free histograms).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace tre::obs {

/// Always true: the probes are compiled into every build. Kept only
/// because the end-to-end benchmark's provenance line prints it; nothing
/// else may branch on it.
inline constexpr bool kEnabled = true;

// --- Instruments -------------------------------------------------------------

/// Monotonic counter. Relaxed atomic increments; never decremented.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins signed level (queue depths, cache sizes).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log₂-bucketed histogram of non-negative samples (latencies in ns,
/// sizes in bytes). Fixed storage, lock-free recording.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;  // bit_width(v) in [0, 64]

  static size_t bucket_of(std::uint64_t v) noexcept {
    return static_cast<size_t>(std::bit_width(v));
  }
  /// Largest value the bucket admits (its reported quantile bound).
  static std::uint64_t bucket_bound(size_t b) noexcept {
    if (b == 0) return 0;
    if (b >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << b) - 1;
  }

  void record(std::uint64_t v) noexcept {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  /// Bulk merge (the Span thread-local batch flush path).
  void merge(const std::uint64_t (&bucket_deltas)[kBuckets], std::uint64_t count,
             std::uint64_t sum) noexcept {
    for (size_t b = 0; b < kBuckets; ++b) {
      if (bucket_deltas[b] != 0) {
        buckets_[b].fetch_add(bucket_deltas[b], std::memory_order_relaxed);
      }
    }
    count_.fetch_add(count, std::memory_order_relaxed);
    sum_.fetch_add(sum, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(size_t b) const noexcept {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  /// Upper bound of the smallest bucket whose cumulative count reaches
  /// `q` (0 < q <= 1) of the total; 0 when empty.
  std::uint64_t quantile_bound(double q) const noexcept;

  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

// --- Registry ----------------------------------------------------------------

/// Named instruments plus JSON snapshot export. All telemetry lives in
/// `Registry::global()`; the class stays instantiable so a test can work
/// on an isolated registry.
///
/// Concurrency: the name->instrument index is an immutable snapshot
/// published through an atomic pointer (read-copy-update). Lookups of
/// already-registered names — the `counter(name)` fast path, and every
/// snapshot read (`counter_value`, `gauge_value`, `to_json`, `reset`) —
/// are one acquire load plus a map walk: lock-free, no shared writes.
/// Only first-time registration takes `mu_`, copies the index, and
/// republishes. Contended registration waits are recorded (in ns) into
/// the built-in "registry.lock_wait" histogram; its count is the number
/// of contended acquisitions. Instrument addresses are stable for the
/// registry's lifetime — resolve once and keep the reference.
class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-wide registry. Never destroyed (leaked on purpose) so
  /// thread-exit Span flushes and static-destruction-order are non-issues.
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Value of a named counter; 0 when it was never registered.
  /// Lock-free: reads the published index snapshot.
  std::uint64_t counter_value(std::string_view name) const;
  std::int64_t gauge_value(std::string_view name) const;

  /// Snapshot as a JSON object, matching the hand-rolled BENCH_*.json
  /// style (string keys, numeric leaves):
  ///   {
  ///     "counters": {"core.pairings": 12, ...},
  ///     "gauges": {...},
  ///     "histograms": {"core.encrypt_ns": {"count": n, "sum": s,
  ///                    "mean": m, "p50": ..., "p95": ..., "p99": ...}}
  ///   }
  /// `indent` is the left margin (spaces) applied to every line, so the
  /// block can be embedded in an enclosing JSON document. Flushes the
  /// calling thread's Span batch first.
  std::string to_json(int indent = 0) const;

  /// Zeroes every registered instrument (bench runs that want per-phase
  /// deltas). Handles stay valid. Lock-free: walks the published index,
  /// so an instrument whose registration races with reset() may keep its
  /// pre-reset value — benign for the bench/test use this serves.
  void reset();

 private:
  // Immutable name->instrument view. Readers hold it only for the
  // duration of one call; superseded generations are retired (kept
  // alive) until the registry dies, so a pointer loaded by a racing
  // reader can never dangle. Registration is rare and bounded (probe
  // sites resolve once), so retired generations cost a few map nodes.
  struct Index {
    std::map<std::string, Counter*, std::less<>> counters;
    std::map<std::string, Gauge*, std::less<>> gauges;
    std::map<std::string, Histogram*, std::less<>> histograms;
  };

  const Index* index() const noexcept {
    return index_.load(std::memory_order_acquire);
  }
  /// Rebuilds the index from the owning maps and publishes it. Caller
  /// holds mu_.
  void republish_locked();

  mutable std::mutex mu_;
  // Stable addresses (unique_ptr), deterministic JSON order (std::map).
  // Owning maps are written under mu_ only; readers go through index_.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::atomic<const Index*> index_{nullptr};
  std::vector<std::unique_ptr<const Index>> retired_;  // all generations, owned
  // Built-in: nanoseconds spent blocked on mu_ by contended
  // registrations. A direct member (not in the owning maps) so recording
  // it never re-enters registration; seeded into every index generation
  // as "registry.lock_wait".
  Histogram lock_wait_;
};

/// Flushes the calling thread's pending Span batch into its histogram
/// (no-op when nothing is pending).
void flush_this_thread() noexcept;

/// Monotonic nanosecond clock used by Span (exposed for tests/benches).
std::uint64_t now_ns() noexcept;

// --- Probes ------------------------------------------------------------------

/// Cached handle to a global-registry counter. Resolve once (static
/// local at the probe site), then add() is one relaxed atomic.
class CounterProbe {
 public:
  explicit CounterProbe(std::string_view name)
      : c_(&Registry::global().counter(name)) {}
  void add(std::uint64_t n = 1) const noexcept { c_->add(n); }

 private:
  Counter* c_;
};

/// Cached handle to a global-registry histogram.
class HistogramProbe {
 public:
  explicit HistogramProbe(std::string_view name)
      : h_(&Registry::global().histogram(name)) {}
  void record(std::uint64_t v) const noexcept { h_->record(v); }
  Histogram* get() const noexcept { return h_; }

 private:
  Histogram* h_;
};

/// RAII scoped timer: records elapsed ns into `probe`'s histogram via
/// the thread-local batch on destruction (or stop()).
class Span {
 public:
  explicit Span(const HistogramProbe& probe) noexcept
      : h_(probe.get()), start_(now_ns()) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { stop(); }

  /// Ends the span early; idempotent.
  void stop() noexcept {
    if (h_ == nullptr) return;
    record_batched(h_, now_ns() - start_);
    h_ = nullptr;
  }

 private:
  static void record_batched(Histogram* h, std::uint64_t ns) noexcept;

  Histogram* h_;
  std::uint64_t start_;
};

}  // namespace tre::obs
