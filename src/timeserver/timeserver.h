// The completely passive time server (paper §3).
//
// Operation: at every granule boundary the server signs the canonical
// time string and broadcasts the update; old updates go to the public
// archive. The server holds NO user state — it does not know how many
// receivers exist (the GPS analogy) — and it enforces the paper's two
// trust assumptions:
//   1. consistent timing: it signs exactly the timeline's current instant,
//      in order, no gaps at its granularity;
//   2. no early release: issuing an update for a future instant throws.
//
// Backend-generic: BasicTimeServer<B> runs the whole issue/archive/
// broadcast pipeline on any pairing backend; `TimeServer` is the type-1
// instantiation, and BasicTimeServer<bls12::Bls381Backend> (constructed
// over Bls12Ctx::get()) is the drand-shaped modern-curve server.
#pragma once

#include <algorithm>
#include <optional>

#include "common/error.h"
#include "core/tre.h"
#include "hashing/drbg.h"
#include "obs/metrics.h"
#include "threshold/threshold.h"
#include "timeserver/archive.h"
#include "timeserver/broadcast.h"
#include "timeserver/timespec.h"

namespace tre::server {

namespace detail {

// Fleet-wide telemetry, shared by every backend's server instances;
// BasicTimeServer::Stats remains the per-instance view.
struct ServerProbes {
  obs::CounterProbe updates_issued{"server.updates_issued"};
  obs::CounterProbe partials_issued{"server.partials_issued"};
  obs::CounterProbe broadcast_bytes{"server.broadcast_bytes"};
  obs::HistogramProbe issue_ns{"server.issue_ns"};
};

inline const ServerProbes& server_probes() {
  static const ServerProbes p;
  return p;
}

}  // namespace detail

template <class B>
class BasicTimeServer {
 public:
  /// Broadcasts at a single granularity.
  BasicTimeServer(std::shared_ptr<const typename B::Params> params,
                  Timeline& timeline, Granularity g,
                  tre::hashing::RandomSource& rng)
      : BasicTimeServer(std::move(params), timeline, std::vector<Granularity>{g},
                        rng) {}

  /// Broadcasts at several granularities simultaneously (e.g. minute +
  /// hour + day), enabling the missing-update resilience of
  /// timeserver/resilient.h: coarse boundaries are signed with their own
  /// canonical strings as they pass.
  BasicTimeServer(std::shared_ptr<const typename B::Params> params,
                  Timeline& timeline, std::vector<Granularity> levels,
                  tre::hashing::RandomSource& rng)
      : params_(std::move(params)),
        scheme_(params_),
        keys_(scheme_.server_keygen(rng)),
        timeline_(timeline),
        bus_(timeline),
        check_rng_(rng.bytes(32)) {
    require(!levels.empty(), "TimeServer: no granularities");
    // Finest first; duplicates removed.
    std::sort(levels.begin(), levels.end(),
              [](Granularity a, Granularity b) { return a > b; });
    levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
    for (Granularity g : levels) {
      levels_.push_back(Level{g, TimeSpec::from_unix(timeline.now(), g)});
    }
  }

  const core::BasicServerPublicKey<B>& public_key() const { return keys_.pub; }

  /// The finest broadcast granularity.
  Granularity granularity() const { return levels_.front().granularity; }

  /// Issues and publishes every update due at or before timeline.now()
  /// that has not been issued yet. Call after advancing the timeline (or
  /// let run() self-schedule). Returns the number of updates issued.
  size_t tick() {
    size_t issued = 0;
    for (Level& level : levels_) {
      while (level.next_due.unix_seconds() <= timeline_.now()) {
        issue_unchecked(level.next_due);
        level.next_due = level.next_due.next();
        ++issued;
      }
    }
    return issued;
  }

  /// Self-scheduling mode: issues due updates and re-arms itself on the
  /// timeline at every granule boundary up to `until_unix_seconds`.
  void run(std::int64_t until_unix_seconds) {
    tick();
    std::int64_t due = next_boundary();
    if (due > until_unix_seconds) return;
    timeline_.schedule(due - timeline_.now(),
                       [this, until_unix_seconds] { run(until_unix_seconds); });
  }

  /// One-off issuance for a specific instant; enforces trust assumption 2
  /// (throws if `t` is in the future of the timeline).
  core::BasicKeyUpdate<B> issue_for(const TimeSpec& t) {
    return try_issue_for(t).value();  // throws on error
  }

  /// Non-throwing issue_for: Errc::kFutureInstant instead of an exception
  /// when `t` violates trust assumption 2. Distribution-side callers
  /// (event loops, request handlers) branch on the code.
  Result<core::BasicKeyUpdate<B>> try_issue_for(const TimeSpec& t) {
    // Trust assumption 2: never sign a future instant.
    if (t.unix_seconds() > timeline_.now()) return Errc::kFutureInstant;
    if (auto existing = archive_.find(t.canonical())) return *existing;
    return issue_unchecked(t);
  }

  // --- Beacon-node mode ------------------------------------------------------
  //
  // In a t-of-n threshold beacon no single server holds the master
  // secret: a DKG (threshold/dkg.h) hands each node one Shamir share,
  // and every node signs each instant with its share alone. A beacon
  // node therefore issues PARTIAL updates — fragments clients
  // Lagrange-aggregate into the ordinary update once any t of them are
  // in hand. Trust assumption 2 (no early release) binds each node
  // exactly as it binds the single server.

  /// Switches this server into beacon-node mode: `key` is the DKG's
  /// public output (group key + per-node verification keys), `share`
  /// this node's secret share. The server's own keypair stays live —
  /// beacon mode is additive, not a replacement.
  void enable_beacon(threshold::BasicThresholdKey<B> key,
                     threshold::BasicServerShare<B> share) {
    require(share.index >= 1 && share.index <= key.config.n,
            "enable_beacon: share index out of range");
    beacon_.emplace(Beacon{
        threshold::BasicThresholdScheme<B>(params_),
        std::move(key), std::move(share)});
  }

  bool beacon_enabled() const { return beacon_.has_value(); }

  /// The beacon key this node participates in (beacon mode only).
  const threshold::BasicThresholdKey<B>& beacon_key() const {
    require(beacon_.has_value(), "beacon_key: beacon mode not enabled");
    return beacon_->key;
  }

  /// One partial update for instant `t`, signed with this node's share.
  /// Errc::kFutureInstant if `t` violates trust assumption 2;
  /// Errc::kBadPartial if the fresh partial fails its own pairing check
  /// (issuer fault detection, mirroring issue_range's batch self-check).
  Result<threshold::BasicPartialUpdate<B>> try_issue_partial_for(
      const TimeSpec& t) {
    require(beacon_.has_value(),
            "try_issue_partial_for: beacon mode not enabled");
    // Trust assumption 2: never sign a future instant, not even partially.
    if (t.unix_seconds() > timeline_.now()) return Errc::kFutureInstant;
    threshold::BasicPartialUpdate<B> partial =
        beacon_->scheme.issue_partial(beacon_->share, t.canonical());
    if (!beacon_->scheme.verify_partial(beacon_->key, partial)) {
      return Errc::kBadPartial;
    }
    ++stats_.partials_issued;
    detail::server_probes().partials_issued.add();
    return partial;
  }

  /// Throwing convenience over try_issue_partial_for.
  threshold::BasicPartialUpdate<B> issue_partial_for(const TimeSpec& t) {
    return try_issue_partial_for(t).value();
  }

  /// Bulk issuance for every instant in [from, to] at `from`'s
  /// granularity, e.g. backfilling an archive gap for late joiners. Still
  /// enforces trust assumption 2 on the whole range. Already-archived
  /// instants are served from the archive; the missing signatures are
  /// computed on the persistent worker pool (`threads` as in
  /// TreScheme::issue_updates) and archived/broadcast in timeline order.
  std::vector<core::BasicKeyUpdate<B>> issue_range(const TimeSpec& from,
                                                   const TimeSpec& to,
                                                   unsigned threads = 0) {
    return try_issue_range(from, to, threads).value();  // throws on error
  }

  /// Non-throwing issue_range: Errc::kFutureInstant when the range ends in
  /// the future (trust assumption 2), Errc::kBadRange when from > to. On
  /// success the vector covers EVERY instant in [from, to] — a typed error
  /// replaces what would otherwise be a silent gap in the archive.
  Result<std::vector<core::BasicKeyUpdate<B>>> try_issue_range(
      const TimeSpec& from, const TimeSpec& to, unsigned threads = 0) {
    // Trust assumption 2 applies to the whole range.
    if (to.unix_seconds() > timeline_.now()) return Errc::kFutureInstant;
    if (from.unix_seconds() > to.unix_seconds()) return Errc::kBadRange;

    std::vector<TimeSpec> instants;
    for (TimeSpec t = from; t.unix_seconds() <= to.unix_seconds(); t = t.next()) {
      instants.push_back(t);
    }

    // Serve what the archive already has (idempotent backfill), then sign
    // the missing instants on the pool and publish them in timeline order.
    std::vector<std::optional<core::BasicKeyUpdate<B>>> out(instants.size());
    std::vector<std::string> missing_tags;
    std::vector<size_t> missing_at;
    for (size_t i = 0; i < instants.size(); ++i) {
      out[i] = archive_.find(instants[i].canonical());
      if (!out[i]) {
        missing_tags.push_back(instants[i].canonical());
        missing_at.push_back(i);
      }
    }
    std::vector<core::BasicKeyUpdate<B>> fresh =
        scheme_.issue_updates(keys_, missing_tags, threads);
    // Issuer fault detection: one RLC batch check over everything just
    // signed (two multi-exps + two pairings regardless of batch size).
    // A corrupted signer or memory fault is caught here, before any bad
    // update reaches the archive or the broadcast bus.
    require(scheme_
                .verify_updates_batch(keys_.pub, fresh, check_rng_,
                                      /*rlc_bits=*/128, threads)
                .empty(),
            "issue_range: freshly issued updates failed the batch self-check");
    for (size_t j = 0; j < fresh.size(); ++j) {
      publish(fresh[j]);
      out[missing_at[j]] = std::move(fresh[j]);
    }

    std::vector<core::BasicKeyUpdate<B>> result;
    result.reserve(out.size());
    for (auto& u : out) result.push_back(std::move(*u));
    return result;
  }

  const BasicUpdateArchive<B>& archive() const { return archive_; }
  BasicBroadcastBus<B>& bus() { return bus_; }

  struct Stats {
    std::uint64_t updates_issued = 0;
    std::uint64_t partials_issued = 0;  // beacon mode only
    std::uint64_t bytes_published = 0;  // update wire bytes (once per instant)
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Level {
    Granularity granularity;
    TimeSpec next_due;
  };

  struct Beacon {
    threshold::BasicThresholdScheme<B> scheme;
    threshold::BasicThresholdKey<B> key;
    threshold::BasicServerShare<B> share;
  };

  core::BasicKeyUpdate<B> issue_unchecked(const TimeSpec& t) {
    obs::Span span(detail::server_probes().issue_ns);
    core::BasicKeyUpdate<B> update = scheme_.issue_update(keys_, t.canonical());
    publish(update);
    return update;
  }

  /// Archives and broadcasts one freshly issued update, and accounts for it.
  void publish(const core::BasicKeyUpdate<B>& update) {
    archive_.put(update);
    bus_.publish(update);
    ++stats_.updates_issued;
    const std::uint64_t wire_bytes = update.to_bytes().size();
    stats_.bytes_published += wire_bytes;
    detail::server_probes().updates_issued.add();
    detail::server_probes().broadcast_bytes.add(wire_bytes);
  }

  std::int64_t next_boundary() const {
    std::int64_t soonest = levels_.front().next_due.unix_seconds();
    for (const Level& level : levels_) {
      soonest = std::min(soonest, level.next_due.unix_seconds());
    }
    return soonest;
  }

  std::shared_ptr<const typename B::Params> params_;
  core::BasicTreScheme<B> scheme_;
  core::BasicServerKeyPair<B> keys_;
  Timeline& timeline_;
  std::vector<Level> levels_;  // finest first
  BasicUpdateArchive<B> archive_;
  BasicBroadcastBus<B> bus_;
  // Dedicated DRBG for the issue_range batch self-check, forked from the
  // keygen rng at construction so check scalars never touch key material.
  tre::hashing::HmacDrbg check_rng_;
  std::optional<Beacon> beacon_;
  Stats stats_;
};

using TimeServer = BasicTimeServer<core::Tre512Backend>;

extern template class BasicTimeServer<core::Tre512Backend>;

}  // namespace tre::server
