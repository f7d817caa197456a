// Read-mostly memoization cache with RCU-style snapshot reads.
//
// The TRE core's memo caches (tag hashes, verified-key checks, comb
// tables, pair bases, Miller lines) are written a handful of times per
// epoch and read on every encrypt/decrypt. A single mutex around a map
// serializes the whole hot path; this container makes the common case —
// a hit on a warm cache — touch NO shared mutable memory at all:
//
//   * The map lives in immutable snapshots (`std::shared_ptr<const Map>`),
//     republished copy-on-write by writers.
//   * Each reading thread keeps a private slot holding the snapshot it
//     last saw plus the version it was published under. A read validates
//     the slot with one atomic *load* of the shard's version counter —
//     no shared store, no reference-count traffic, no lock — and only
//     refreshes (under the shard's write lock) when a writer has
//     republished since.
//   * Misses compute the value OUTSIDE any lock (values are deterministic
//     functions of the key, so a racing duplicate insert is harmless),
//     then insert under one of `kShards` striped write locks.
//
// Memory-ordering argument: a writer stores the new snapshot pointer and
// then bumps `version` with memory_order_release; a reader that observes
// the bumped version with memory_order_acquire refreshes under the shard
// mutex, which orders the snapshot pointer read after the writer's store.
// A reader whose slot version still equals the current version holds the
// snapshot that was current when version was published — possibly one
// republish stale for a few instructions, which is fine: snapshots are
// immutable, and a stale *miss* merely recomputes a deterministic value.
//
// Reclamation: thread slots pin their snapshot via shared_ptr, so a
// republished-over snapshot is freed when the last thread moves off it.
// Slots are keyed by a process-unique shard id (never reused), so a
// destroyed cache cannot be confused with a new one at the same address;
// stale slots age out of the bounded per-thread slot list.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace tre {

struct SnapshotCacheOptions {
  /// Aggregate entry bound; a shard that reaches its share is cleared
  /// wholesale (same flood-guard policy as the seed-era caches).
  size_t max_entries = 1024;
  /// Called with the nanoseconds a writer or a refreshing reader spent
  /// blocked on a CONTENDED shard mutex; uncontended acquisitions do not
  /// report. Hook must be callable from any thread without locks.
  void (*lock_wait_ns)(std::uint64_t) = nullptr;
};

namespace detail {

/// One thread-private snapshot slot. Type-erased so every SnapshotCache
/// instantiation shares one thread_local slot list.
struct SnapshotTlsSlot {
  std::uint64_t shard_id = 0;
  std::uint64_t version = 0;
  std::shared_ptr<const void> holder;  // pins the snapshot
  const void* map = nullptr;
};

// Bounded move-to-front list: hot shards are found within the first few
// probes; slots of dead caches drift to the back and fall off.
inline constexpr size_t kSnapshotTlsSlots = 128;

inline std::vector<SnapshotTlsSlot>& snapshot_tls() {
  thread_local std::vector<SnapshotTlsSlot> slots;
  return slots;
}

inline SnapshotTlsSlot* snapshot_tls_find(std::uint64_t shard_id) {
  auto& slots = snapshot_tls();
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].shard_id == shard_id) {
      if (i > 0) std::swap(slots[i], slots[i - 1]);
      return &slots[i > 0 ? i - 1 : 0];
    }
  }
  return nullptr;
}

inline SnapshotTlsSlot* snapshot_tls_insert(SnapshotTlsSlot slot) {
  auto& slots = snapshot_tls();
  if (slots.size() >= kSnapshotTlsSlots) slots.pop_back();
  slots.insert(slots.begin(), std::move(slot));
  return &slots.front();
}

inline std::uint64_t snapshot_next_shard_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Locks `mu`, reporting contended wait time to `hook` (may be null).
inline void lock_reporting_wait(std::mutex& mu, void (*hook)(std::uint64_t)) {
  if (mu.try_lock()) return;
  if (hook == nullptr) {
    mu.lock();
    return;
  }
  auto t0 = std::chrono::steady_clock::now();
  mu.lock();
  auto waited = std::chrono::steady_clock::now() - t0;
  hook(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(waited).count()));
}

struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

}  // namespace detail

template <typename V>
class SnapshotCache {
 public:
  using Map = std::unordered_map<std::string, V, detail::TransparentStringHash,
                                 std::equal_to<>>;

  explicit SnapshotCache(SnapshotCacheOptions opt = {}) : opt_(opt) {
    for (Shard& s : shards_) {
      s.id = detail::snapshot_next_shard_id();
      s.snap = std::make_shared<const Map>();
    }
  }
  SnapshotCache(const SnapshotCache&) = delete;
  SnapshotCache& operator=(const SnapshotCache&) = delete;

  /// Value for `key`, or nullopt. Lock-free, zero shared writes when the
  /// calling thread's slot is current.
  std::optional<V> find(std::string_view key) const {
    const Map* m = acquire(shard_for(key));
    auto it = m->find(key);
    if (it == m->end()) return std::nullopt;
    return it->second;
  }

  bool contains(std::string_view key) const { return find(key).has_value(); }

  /// Publishes key -> value. A key already present is left untouched
  /// (values are deterministic per key, so first-write-wins is exact).
  void insert(std::string_view key, const V& value) {
    Shard& s = shard_for(key);
    detail::lock_reporting_wait(s.mu, opt_.lock_wait_ns);
    std::lock_guard<std::mutex> guard(s.mu, std::adopt_lock);
    if (s.snap->find(key) != s.snap->end()) return;
    auto next = std::make_shared<Map>(*s.snap);
    if (next->size() >= per_shard_bound()) next->clear();
    next->emplace(std::string(key), value);
    s.snap = std::move(next);
    // Release pairs with the acquire in acquire(): a reader seeing the
    // new version refreshes under s.mu and therefore sees the new map.
    s.version.fetch_add(1, std::memory_order_release);
  }

  /// Entry count (sums shards; approximate under concurrent writers).
  size_t size() const {
    size_t total = 0;
    for (const Shard& s : shards_) {
      std::scoped_lock lock(s.mu);
      total += s.snap->size();
    }
    return total;
  }

 private:
  static constexpr size_t kShards = 4;

  struct Shard {
    mutable std::mutex mu;                  // writers; slot refresh
    std::shared_ptr<const Map> snap;        // current snapshot
    std::atomic<std::uint64_t> version{1};  // bumped per republish
    std::uint64_t id = 0;                   // process-unique, never reused
  };

  size_t per_shard_bound() const {
    size_t b = opt_.max_entries / kShards;
    return b == 0 ? 1 : b;
  }

  Shard& shard_for(std::string_view key) {
    return shards_[detail::TransparentStringHash{}(key) % kShards];
  }
  const Shard& shard_for(std::string_view key) const {
    return shards_[detail::TransparentStringHash{}(key) % kShards];
  }

  /// The calling thread's view of shard `s`, refreshed if a writer has
  /// republished. Hit path: one acquire load + a thread-private probe.
  const Map* acquire(const Shard& s) const {
    std::uint64_t v = s.version.load(std::memory_order_acquire);
    detail::SnapshotTlsSlot* slot = detail::snapshot_tls_find(s.id);
    if (slot != nullptr && slot->version == v) {
      return static_cast<const Map*>(slot->map);
    }
    // Stale or first touch: re-read snapshot + version coherently under
    // the shard mutex (writers republish under the same mutex).
    std::shared_ptr<const Map> snap;
    {
      detail::lock_reporting_wait(s.mu, opt_.lock_wait_ns);
      std::lock_guard<std::mutex> guard(s.mu, std::adopt_lock);
      snap = s.snap;
      v = s.version.load(std::memory_order_relaxed);
    }
    const Map* raw = snap.get();
    if (slot != nullptr) {
      slot->version = v;
      slot->map = raw;
      slot->holder = std::move(snap);
    } else {
      detail::snapshot_tls_insert(
          detail::SnapshotTlsSlot{s.id, v, std::move(snap), raw});
    }
    return raw;
  }

  SnapshotCacheOptions opt_;
  Shard shards_[kShards];
};

}  // namespace tre
