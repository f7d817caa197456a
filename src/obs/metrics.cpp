#include "obs/metrics.h"

#include <chrono>
#include <cstdio>
#include <vector>

namespace tre::obs {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t Histogram::quantile_bound(double q) const noexcept {
  std::uint64_t total = count();
  if (total == 0) return 0;
  // Ceiling of q·total, clamped into [1, total]: q=1.0 lands on the last
  // sample. The double only leaves through a cast once it is known to lie
  // in (1, total), where the conversion is exact-or-truncating and defined.
  const double want = q * static_cast<double>(total);
  std::uint64_t rank = total;
  if (!(want > 1.0)) {
    rank = 1;
  } else if (want < static_cast<double>(total)) {
    rank = static_cast<std::uint64_t>(want);
    if (static_cast<double>(rank) < want) ++rank;
  }
  std::uint64_t cumulative = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    cumulative += bucket(b);
    if (cumulative >= rank) return bucket_bound(b);
  }
  return bucket_bound(kBuckets - 1);
}

Registry& Registry::global() {
  // Leaked on purpose: Span batches flush at thread exit, and a
  // destroyed registry would turn those flushes into use-after-free.
  static Registry* g = new Registry();
  return *g;
}

namespace {

// Lock `mu`, recording the wait into `contended` only when the lock was
// actually contested (try_lock failed). Uncontended registrations — the
// overwhelming majority — never touch the clock.
std::unique_lock<std::mutex> lock_timed(std::mutex& mu, Histogram& contended) {
  std::unique_lock<std::mutex> lock(mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    const std::uint64_t t0 = now_ns();
    lock.lock();
    contended.record(now_ns() - t0);  // relaxed atomics; safe under the lock
  }
  return lock;
}

}  // namespace

Registry::Registry() {
  // Publish the first generation eagerly so readers never see a null
  // index; it already carries the built-in lock-wait histogram.
  std::scoped_lock lock(mu_);
  republish_locked();
}

Registry::~Registry() = default;

void Registry::republish_locked() {
  auto next = std::make_unique<Index>();
  for (const auto& [name, c] : counters_) next->counters.emplace(name, c.get());
  for (const auto& [name, g] : gauges_) next->gauges.emplace(name, g.get());
  for (const auto& [name, h] : histograms_) next->histograms.emplace(name, h.get());
  next->histograms.emplace("registry.lock_wait", &lock_wait_);
  index_.store(next.get(), std::memory_order_release);
  retired_.push_back(std::move(next));
}

Counter& Registry::counter(std::string_view name) {
  const Index* idx = index();
  if (auto it = idx->counters.find(name); it != idx->counters.end()) {
    return *it->second;
  }
  auto lock = lock_timed(mu_, lock_wait_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
    republish_locked();
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const Index* idx = index();
  if (auto it = idx->gauges.find(name); it != idx->gauges.end()) {
    return *it->second;
  }
  auto lock = lock_timed(mu_, lock_wait_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
    republish_locked();
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  const Index* idx = index();
  if (auto it = idx->histograms.find(name); it != idx->histograms.end()) {
    return *it->second;  // includes the built-in "registry.lock_wait"
  }
  auto lock = lock_timed(mu_, lock_wait_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first;
    republish_locked();
  }
  return *it->second;
}

std::uint64_t Registry::counter_value(std::string_view name) const {
  const Index* idx = index();
  auto it = idx->counters.find(name);
  return it == idx->counters.end() ? 0 : it->second->value();
}

std::int64_t Registry::gauge_value(std::string_view name) const {
  const Index* idx = index();
  auto it = idx->gauges.find(name);
  return it == idx->gauges.end() ? 0 : it->second->value();
}

void Registry::reset() {
  flush_this_thread();  // pending spans would otherwise resurrect post-reset
  const Index* idx = index();
  for (const auto& [name, c] : idx->counters) c->reset();
  for (const auto& [name, g] : idx->gauges) g->reset();
  for (const auto& [name, h] : idx->histograms) h->reset();
}

namespace {

// JSON string escaping for instrument names (metric names are plain
// dotted identifiers in practice; this keeps arbitrary names safe).
void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

}  // namespace

std::string Registry::to_json(int indent) const {
  flush_this_thread();
  const std::string margin(static_cast<size_t>(indent), ' ');
  std::string out;
  // Lock-free: serializes the published index snapshot. The built-in
  // "registry.lock_wait" histogram is part of every generation.
  const Index* idx = index();

  out += margin + "{\n";
  out += margin + "  \"metrics_enabled\": ";
  out += kEnabled ? "true" : "false";
  out += ",\n";

  out += margin + "  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : idx->counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += margin + "    ";
    append_json_string(out, name);
    out += ": ";
    append_u64(out, c->value());
  }
  out += first ? "},\n" : "\n" + margin + "  },\n";

  out += margin + "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : idx->gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += margin + "    ";
    append_json_string(out, name);
    out += ": ";
    out += std::to_string(g->value());
  }
  out += first ? "},\n" : "\n" + margin + "  },\n";

  out += margin + "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : idx->histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    std::uint64_t count = h->count();
    std::uint64_t sum = h->sum();
    out += margin + "    ";
    append_json_string(out, name);
    out += ": {\"count\": ";
    append_u64(out, count);
    out += ", \"sum\": ";
    append_u64(out, sum);
    out += ", \"mean\": ";
    char mean[32];
    std::snprintf(mean, sizeof mean, "%.3f",
                  count == 0 ? 0.0
                             : static_cast<double>(sum) / static_cast<double>(count));
    out += mean;
    out += ", \"p50\": ";
    append_u64(out, h->quantile_bound(0.50));
    out += ", \"p95\": ";
    append_u64(out, h->quantile_bound(0.95));
    out += ", \"p99\": ";
    append_u64(out, h->quantile_bound(0.99));
    out += "}";
  }
  out += first ? "}\n" : "\n" + margin + "  }\n";

  out += margin + "}";
  return out;
}

// --- Span thread-local batching ----------------------------------------------

#if TRE_METRICS_ENABLED

namespace {

// How many records a thread may hold back before publishing. Small
// enough that snapshots lag negligibly, large enough that a hot loop
// touches shared cache lines ~2% of the time.
constexpr std::uint32_t kSpanFlushEvery = 64;

struct SpanBatch {
  Histogram* h = nullptr;  // most recently used histogram (single slot)
  std::uint64_t buckets[Histogram::kBuckets] = {};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void flush() noexcept {
    if (h == nullptr || count == 0) return;
    h->merge(buckets, count, sum);
    for (auto& b : buckets) b = 0;
    count = 0;
    sum = 0;
  }

  void record(Histogram* target, std::uint64_t ns) noexcept {
    if (target != h) {
      flush();
      h = target;
    }
    buckets[Histogram::bucket_of(ns)] += 1;
    count += 1;
    sum += ns;
    if (count >= kSpanFlushEvery) flush();
  }

  ~SpanBatch() { flush(); }  // thread exit publishes the tail
};

SpanBatch& tls_batch() noexcept {
  thread_local SpanBatch batch;
  return batch;
}

}  // namespace

void Span::record_batched(Histogram* h, std::uint64_t ns) noexcept {
  tls_batch().record(h, ns);
}

void flush_this_thread() noexcept { tls_batch().flush(); }

#else

void flush_this_thread() noexcept {}

#endif  // TRE_METRICS_ENABLED

}  // namespace tre::obs
