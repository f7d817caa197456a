// Byzantine-resilient update fetching — the receiver side of §3's
// distribution story, hardened.
//
// The paper's passive server scales because its output is
// self-authenticating: ê(sG, H1(T)) == ê(G, I_T) holds for exactly one
// point per tag, so ANY path can carry an update and the receiver needs
// trust in nobody along it. UpdateFetcher turns that observation into a
// pipeline. Every reply from a mirror crosses one trust boundary before
// acceptance, and all three entry points (fetch_verified,
// fetch_range_verified, fetch_threshold) run the same stage:
//
//       wire bytes ──parse──► item ──tag == requested?──►
//            ──pairing or RLC check──► accepted
//
// Each rejection is counted against its cause (garbage, relabel,
// forgery) in the call's own result and in the fleet-wide
// client.rejected.* probes, and the slot that served it is rated. Around
// that boundary sits the liveness machinery:
//   * exponential backoff with decorrelated jitter (drawn from the
//     node's own HmacDrbg — deterministic per seed, uncorrelated across
//     receivers, so retry storms don't synchronize);
//   * per-mirror health scores AND per-mirror backoff state, both
//     persistent across fetches: verified successes promote (and reset
//     that mirror's backoff), every failure demotes; rotation prefers
//     the healthiest alternative, so misbehaving replicas starve and a
//     mirror that was backing off at the end of one fetch is still
//     backing off when the next begins;
//   * failover after k consecutive failures on one mirror. Rotation
//     eventually visits every mirror, giving single-honest-mirror
//     liveness with NO quorum: one honest replica anywhere keeps every
//     receiver live, because acceptance never depends on agreement —
//     only on the pairing check;
//   * terminal fallback: when the precise update is unobtainable inside
//     the attempt budget, the fetcher walks the coarser tags of the
//     release's fallback chain (timeserver/resilient.h), trading
//     precision for availability exactly as ResilientTre's disjunctive
//     ciphertexts allow.
//
// Experiment E18 (bench_faults) measures the resulting availability
// latency and rejection counts as functions of loss rate and
// Byzantine-mirror fraction.
//
// Backend-generic: BasicUpdateFetcher<B> runs the identical pipeline on
// any pairing backend — the parse stage uses B's wire codec and the
// verification stage B's pairing check, so a reply encoded for the WRONG
// backend dies at the parse counter, never in the group arithmetic.
// `UpdateFetcher` is the type-1 instantiation.
//
// Transport-generic: the fetcher speaks to a client::UpdateSource
// (transport.h), never to a concrete network. BasicSimnetSource adapts
// the discrete-event mirrored archive; SocketTransport speaks tred's
// framed protocol over real TCP. The trust gate cannot tell them apart —
// that is the point.
#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "bigint/bigint.h"
#include "client/transport.h"
#include "timeserver/timeline.h"
#include "core/tre.h"
#include "obs/metrics.h"
#include "threshold/threshold.h"
#include "timeserver/resilient.h"

namespace tre::client {

struct FetcherConfig {
  std::int64_t base_backoff = 1;   ///< seconds; first retry delay
  std::int64_t max_backoff = 64;   ///< decorrelated-jitter cap
  std::int64_t reply_timeout = 8;  ///< silent-poll deadline per attempt
                                   ///< (must exceed the round-trip time)
  size_t failover_after = 2;       ///< consecutive failures before rotating
  size_t attempts_per_tag = 16;    ///< request budget per tag before fallback
  int min_health = -8;             ///< health score floor
  int max_health = 4;              ///< health score ceiling
};

/// What the trust boundary threw away, by the stage that caught it. Every
/// entry point's result carries its own counts — one call's rejections
/// never show up in another call's result.
struct Rejections {
  size_t rejected_parse = 0;  ///< malformed bytes (garbage, framing damage)
  size_t rejected_tag = 0;    ///< well-formed, but for the WRONG tag (relabel)
  size_t rejected_sig = 0;    ///< parsed clean but failed self-authentication
  size_t total_rejected() const {
    return rejected_parse + rejected_tag + rejected_sig;
  }
};

/// Accounting of one fetch_verified call, split by rejection cause so
/// experiments can attribute latency to the right adversary. Reset when
/// the fetch starts; the fleet-wide client.fetch.* / client.rejected.*
/// probes count the same events across every fetcher in the process.
struct FetchStats : Rejections {
  size_t attempts = 0;        ///< requests sent
  size_t timeouts = 0;        ///< attempts with no reply inside the deadline
  size_t failovers = 0;       ///< mirror rotations
  size_t fallback_steps = 0;  ///< coarser chain tags resorted to
  size_t backoff_wait = 0;    ///< total seconds spent in retry backoff
};

template <class B>
struct BasicFetchResult {
  core::BasicKeyUpdate<B> update;  ///< VERIFIED against the server public key
  bool via_fallback = false;       ///< a coarser chain tag, not the precise one
  std::int64_t completed_at = 0;   ///< timeline instant of acceptance
  FetchStats stats;
};

/// One batch-verified catch-up page (BasicUpdateFetcher::
/// fetch_range_verified): everything in `updates` passed the trust
/// boundary; the reject counts attribute what did not (rejected_tag stays
/// 0: a range scan requests no tag).
template <class B>
struct BasicRangeFetchResult : Rejections {
  std::vector<core::BasicKeyUpdate<B>> updates;  ///< VERIFIED, archive order
  std::uint64_t total = 0;    ///< mirror's claimed archive size
  std::uint64_t start = 0;    ///< archive index of the page's first item
  size_t served = 0;          ///< raw items in the page, rejects included
};

/// A whole-archive catch-up (BasicUpdateFetcher::fetch_archive_verified):
/// the updates and reject counts of the last mirror scanned, which is the
/// one that served a full scan when `complete`.
template <class B>
struct BasicArchiveFetchResult : Rejections {
  std::vector<core::BasicKeyUpdate<B>> updates;  ///< VERIFIED, archive order, one per tag
  bool complete = false;  ///< a mirror paged through to the total it claimed
};

/// Quorum collection over a t-of-n threshold beacon
/// (BasicUpdateFetcher::fetch_threshold): `update` is the ordinary
/// s·H1(T) update, Lagrange-aggregated client-side from `partials_used`
/// verified partials and bit-identical to what a single server holding s
/// would have issued. The reject counts attribute what each gate threw
/// away, and `byzantine_nodes` names the beacon nodes (1-based share
/// indices) whose partials failed the pairing check — exact attribution,
/// courtesy of the RLC batch's bisection.
template <class B>
struct BasicThresholdFetchResult : Rejections {
  core::BasicKeyUpdate<B> update;  ///< VERIFIED against the group key
  size_t partials_used = 0;        ///< quorum size actually combined (k)
  size_t slots_polled = 0;         ///< mirror slots asked for a partial
  size_t silent = 0;               ///< slots with no reply (crash/drop)
  size_t rejected_dup = 0;         ///< share index already in hand
  std::vector<size_t> byzantine_nodes;  ///< share indices of forgers, sorted
};

namespace detail {

// Fleet-wide telemetry: every fetcher in the process contributes, so E18
// reads per-cause rejection totals straight from the global registry.
// Shared across backends.
struct FetcherProbes {
  obs::CounterProbe attempts{"client.fetch.attempts"};
  obs::CounterProbe timeouts{"client.fetch.timeouts"};
  obs::CounterProbe rejected_parse{"client.rejected.parse"};
  obs::CounterProbe rejected_tag{"client.rejected.tag"};
  obs::CounterProbe rejected_sig{"client.rejected.sig"};
  obs::CounterProbe failovers{"client.fetch.failovers"};
  obs::CounterProbe fallback_steps{"client.fetch.fallback_steps"};
  obs::CounterProbe backoff_wait{"client.fetch.backoff_wait_s"};
  obs::CounterProbe successes{"client.fetch.successes"};
  obs::CounterProbe failures{"client.fetch.failures"};
  // Batch-verified catch-up (fetch_range_verified): updates accepted
  // through an RLC batch, and batches whose RLC failed and bisected.
  obs::CounterProbe batch_accept{"client.batch.accept"};
  obs::CounterProbe batch_bisect{"client.batch.bisect"};
  // Threshold-beacon quorum collection (fetch_threshold): partial
  // requests sent, partials surviving the RLC batch, partials rejected
  // at any gate, and quorums successfully Lagrange-combined.
  obs::CounterProbe partial_requests{"client.partials.requests"};
  obs::CounterProbe partial_accepted{"client.partials.accepted"};
  obs::CounterProbe partial_rejected{"client.partials.rejected"};
  obs::CounterProbe threshold_combines{"client.partials.combines"};
};

inline const FetcherProbes& fetcher_probes() {
  static const FetcherProbes p;
  return p;
}

}  // namespace detail

template <class B>
class BasicUpdateFetcher {
 public:
  /// `mirrors` lists the source's mirror indices this receiver may use,
  /// preferred first (UpdateSource::kOrigin is allowed as a last-resort
  /// entry when the source has one). `seed` drives the backoff jitter.
  /// The source and the fetcher must outlive every timeline event of its
  /// fetches.
  BasicUpdateFetcher(core::BasicTreScheme<B> scheme,
                     core::BasicServerPublicKey<B> server,
                     UpdateSource& source, server::Timeline& timeline,
                     std::vector<size_t> mirrors, ByteSpan seed,
                     FetcherConfig config = {})
      : scheme_(std::move(scheme)),
        server_(std::move(server)),
        source_(&source),
        timeline_(timeline),
        mirrors_(std::move(mirrors)),
        config_(config),
        rng_(seed.empty() ? ByteSpan(to_bytes("fetcher-default")) : seed) {
    require(!mirrors_.empty(), "UpdateFetcher: need at least one mirror");
    for (size_t idx : mirrors_) {
      require(source_->valid_mirror(idx), "UpdateFetcher: bad mirror index");
    }
    require(config_.base_backoff > 0 && config_.max_backoff >= config_.base_backoff,
            "UpdateFetcher: bad backoff bounds");
    require(config_.reply_timeout > 0, "UpdateFetcher: bad reply timeout");
    require(config_.failover_after > 0 && config_.attempts_per_tag > 0,
            "UpdateFetcher: bad budgets");
    health_.assign(mirrors_.size(), 0);
    // Backoff state is PER MIRROR and persists across fetches: a replica
    // that kept timing out five minutes ago has not earned a fresh start.
    slot_backoff_.assign(mirrors_.size(), config_.base_backoff);
  }

  using SuccessFn = std::function<void(const BasicFetchResult<B>&)>;
  using FailureFn = std::function<void(const FetchStats&)>;

  /// Runs the pipeline for `tags.front()`; each time a tag's attempt
  /// budget is exhausted, moves to the next (coarser) tag. `done` fires
  /// with the first verified update; `failed` (optional) fires when the
  /// whole chain is exhausted. One fetch at a time per fetcher.
  void fetch_verified(std::vector<std::string> tags, SuccessFn done,
                      FailureFn failed = nullptr) {
    require(!busy_, "UpdateFetcher: a fetch is already running");
    require(!tags.empty(), "UpdateFetcher: no tags to fetch");
    require(done != nullptr, "UpdateFetcher: null success callback");
    busy_ = true;
    tags_ = std::move(tags);
    tag_index_ = 0;
    stats_ = FetchStats{};
    done_ = std::move(done);
    failed_ = std::move(failed);
    // Start from the healthiest known mirror: knowledge from earlier
    // fetches (demoted replicas) carries over.
    current_slot_ = static_cast<size_t>(
        std::max_element(health_.begin(), health_.end()) - health_.begin());
    consecutive_failures_ = 0;
    start_tag();
  }

  /// Convenience: the precise release tag plus its coarser fallback
  /// chain, matching what ResilientTre::encrypt locked the message under.
  void fetch_release(const server::TimeSpec& release,
                     server::Granularity coarsest, SuccessFn done,
                     FailureFn failed = nullptr) {
    std::vector<std::string> tags;
    for (const server::TimeSpec& t : server::fallback_chain(release, coarsest)) {
      tags.push_back(t.canonical());
    }
    fetch_verified(std::move(tags), std::move(done), std::move(failed));
  }

  bool busy() const { return busy_; }

  /// Batch-verified catch-up: one range page from `mirrors[slot]`, pushed
  /// through the SAME trust boundary as fetch_verified, but with the N
  /// pairing checks folded into one RLC batch
  /// (TreScheme::verify_updates_batch); when the batch fails, bisection
  /// attributes the guilty items and they are dropped, never surfaced.
  /// There is no per-item tag stage here — a range scan requests no
  /// specific tag — so a relabeled item dies at the signature stage
  /// instead: the pairing check binds each sig to its update's own tag.
  ///
  /// Synchronous (catch-up is a bulk path, not a latency path) and
  /// independent of any in-flight fetch_verified state machine. Returns
  /// nullopt when the source has no range facility, the round trip
  /// failed, or the page does not answer the request (it starts anywhere
  /// but `start`, or holds more than `max_count` items); each of those
  /// demotes the slot. A served page is rated as one reply: any reject
  /// demotes, a clean non-empty page promotes and resets backoff.
  std::optional<BasicRangeFetchResult<B>> fetch_range_verified(
      size_t slot, std::uint64_t start, std::uint32_t max_count,
      unsigned rlc_bits = 128) {
    require(slot < mirrors_.size(), "UpdateFetcher: bad mirror slot");
    std::optional<RangePage> page =
        source_->request_range(mirrors_[slot], start, max_count);
    if (!page || page->start != start || page->updates.size() > max_count) {
      rate(slot, false);
      return std::nullopt;
    }
    BasicRangeFetchResult<B> out;
    out.total = page->total;
    out.start = page->start;
    out.served = page->updates.size();
    std::vector<core::BasicKeyUpdate<B>> parsed;
    parsed.reserve(page->updates.size());
    for (const Bytes& wire : page->updates) {
      std::optional<core::BasicKeyUpdate<B>> u =
          admit<core::BasicKeyUpdate<B>>(scheme_.params(), wire, nullptr, out);
      if (u) parsed.push_back(std::move(*u));
    }
    const detail::FetcherProbes& probes = detail::fetcher_probes();
    settle<core::BasicKeyUpdate<B>>(
        parsed,
        [&](std::span<const core::BasicKeyUpdate<B>> items) {
          std::vector<size_t> bad =
              scheme_.verify_updates_batch(server_, items, rng_, rlc_bits);
          if (!bad.empty()) probes.batch_bisect.add();
          return bad;
        },
        out,
        [&](size_t i, bool verified) {
          if (verified) out.updates.push_back(std::move(parsed[i]));
        });
    probes.batch_accept.add(out.updates.size());
    if (out.total_rejected() > 0) {
      rate(slot, false);
    } else if (!out.updates.empty()) {
      rate(slot, true);
    }
    return out;
  }

  /// Whole-archive catch-up: scans the mirrors in slot order, paging each
  /// one's archive through fetch_range_verified `page_size` items at a
  /// time, until one serves pages up to the total it claims. A tag the
  /// scan already holds is skipped, and a page that adds no new tag ends
  /// that mirror's scan as incomplete: an honest archive never repeats a
  /// tag (daemon::Store::put refuses equivocation), so a mirror that
  /// replays itself or serves only forgeries cannot keep a scan alive,
  /// and that page demotes its slot. A failed or non-answering page moves
  /// on to the next mirror as well.
  BasicArchiveFetchResult<B> fetch_archive_verified(std::uint32_t page_size) {
    BasicArchiveFetchResult<B> out;
    for (size_t slot = 0; slot < mirrors_.size(); ++slot) {
      out = BasicArchiveFetchResult<B>{};  // a fresh mirror restarts the scan
      std::set<std::string> seen;
      for (std::uint64_t pos = 0;;) {
        std::optional<BasicRangeFetchResult<B>> page =
            fetch_range_verified(slot, pos, page_size);
        if (!page) break;
        out.rejected_parse += page->rejected_parse;
        out.rejected_sig += page->rejected_sig;
        size_t added = 0;
        for (core::BasicKeyUpdate<B>& u : page->updates) {
          if (!seen.insert(u.tag).second) continue;
          out.updates.push_back(std::move(u));
          ++added;
        }
        pos += page->served;
        if (pos >= page->total) {
          out.complete = true;
          return out;
        }
        if (added == 0) {
          rate(slot, false);  // a replay is no answer, however well it verifies
          break;
        }
      }
    }
    return out;
  }

  /// Threshold-beacon fetch: collects partial updates for `tag` from the
  /// fetcher's mirrors — healthiest slots first, so known-good beacon
  /// nodes are polled before previously demoted ones — until k = key
  /// threshold distinct share indices survive the trust boundary, then
  /// Lagrange-aggregates them (threshold/threshold.h) into the ordinary
  /// update and verifies THAT against the group key.
  ///
  /// Each reply crosses the same boundary as fetch_verified — parse, tag
  /// check, pairing check — but the pairing stage is the RLC batch with
  /// bisection, so a whole quorum costs two multi-exps and two pairings
  /// when honest, and forged partials are attributed to their exact
  /// share indices when not. Health and backoff react per slot: a
  /// verified partial promotes and resets backoff, every reject or
  /// silence demotes.
  ///
  /// Synchronous (quorum collection is a bulk path, like range catch-up)
  /// and independent of any in-flight fetch_verified. Errors:
  /// Errc::kInsufficientPartials when the mirror set cannot field k valid
  /// partials; Errc::kBadPartial when the aggregate fails the final group
  /// check (cannot happen unless the threshold key itself is wrong).
  Result<BasicThresholdFetchResult<B>> fetch_threshold(
      const threshold::BasicThresholdScheme<B>& tscheme,
      const threshold::BasicThresholdKey<B>& key, const std::string& tag,
      unsigned rlc_bits = 128) {
    using Partial = threshold::BasicPartialUpdate<B>;
    const size_t k = key.config.k;
    require(k >= 1, "fetch_threshold: malformed threshold key");
    const detail::FetcherProbes& probes = detail::fetcher_probes();

    // Healthiest first; ties keep preference order (stable sort).
    std::vector<size_t> order(mirrors_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [this](size_t a, size_t b) {
      return health_[a] > health_[b];
    });

    BasicThresholdFetchResult<B> out;
    std::vector<Partial> verified;
    std::vector<Partial> pending;
    std::vector<size_t> pending_slots;  // slot that served pending[i]
    std::vector<size_t> seen_indices;   // share indices already in hand

    // The pending batch holds structurally clean partials whose pairing
    // check is deferred; one RLC batch settles them all, bisection
    // attributing any forgery to its exact share index and slot.
    const auto flush_pending = [&]() {
      settle<Partial>(
          pending,
          [&](std::span<const Partial> items) {
            return tscheme.verify_partials_batch(key, items, rng_, rlc_bits);
          },
          out,
          [&](size_t i, bool ok) {
            rate(pending_slots[i], ok);
            if (ok) {
              verified.push_back(std::move(pending[i]));
            } else {
              out.byzantine_nodes.push_back(pending[i].index);
            }
          });
      pending.clear();
      pending_slots.clear();
    };

    for (size_t slot : order) {
      if (verified.size() >= k) break;
      ++out.slots_polled;
      probes.partial_requests.add();
      std::optional<Bytes> wire = source_->request_partial(mirrors_[slot], tag);
      std::optional<Partial> partial;
      if (!wire) {
        ++out.silent;
      } else {
        partial = admit<Partial>(tscheme.params(), *wire, &tag, out);
      }
      if (partial && std::find(seen_indices.begin(), seen_indices.end(),
                               partial->index) != seen_indices.end()) {
        // A share index can only contribute once to the quorum; a second
        // copy (honest echo or replayed forgery) is dead weight.
        ++out.rejected_dup;
        partial.reset();
      }
      if (!partial) {
        rate(slot, false);
        continue;
      }
      seen_indices.push_back(partial->index);
      pending.push_back(std::move(*partial));
      pending_slots.push_back(slot);
      if (verified.size() + pending.size() >= k) flush_pending();
    }
    flush_pending();
    probes.partial_accepted.add(verified.size());
    probes.partial_rejected.add(out.total_rejected() + out.rejected_dup);

    if (verified.size() < k) return Errc::kInsufficientPartials;
    core::BasicKeyUpdate<B> update = tscheme.combine(key, verified);
    // Belt and braces: the aggregate must verify as an ORDINARY update
    // under the group key — the same check any non-threshold-aware
    // receiver would apply.
    if (!scheme_.verify_update(key.as_server_public_key(), update)) {
      return Errc::kBadPartial;
    }
    std::sort(out.byzantine_nodes.begin(), out.byzantine_nodes.end());
    probes.threshold_combines.add();
    out.update = std::move(update);
    out.partials_used = k;
    return out;
  }

  /// Health score of `mirrors[slot]` (0 = neutral; negative = demoted).
  int health(size_t slot) const {
    require(slot < health_.size(), "UpdateFetcher: bad mirror slot");
    return health_[slot];
  }

  /// The backoff seed (seconds) the next failure on `mirrors[slot]` will
  /// jitter from. base_backoff when the mirror is in good standing;
  /// larger when it has been failing — including failures from EARLIER
  /// fetches, since backoff state persists across fetch() calls.
  std::int64_t backoff_hint(size_t slot) const {
    require(slot < slot_backoff_.size(), "UpdateFetcher: bad mirror slot");
    return slot_backoff_[slot];
  }

 private:
  // ---- The trust boundary ----------------------------------------------
  // The one stage every entry point runs on what a slot served, in this
  // order: admit() parses with B's codec and checks the tag when one was
  // requested; the pairing or RLC check follows (settle() for a batch);
  // rate() scores the slot. Each rejection is counted in the calling entry
  // point's own result and in the fleet-wide client.rejected.* probe
  // together, in admit() or reject_sig().

  /// Parse, then — when `want` names the requested tag — the tag check.
  /// nullopt once the item is rejected and counted.
  template <class T>
  static std::optional<T> admit(const typename B::Params& params, ByteSpan wire,
                                const std::string* want, Rejections& tally) {
    std::optional<T> item = tre::wire::try_parse<T>(params, wire);
    if (!item) {
      ++tally.rejected_parse;
      detail::fetcher_probes().rejected_parse.add();
    } else if (want != nullptr && item->tag != *want) {
      ++tally.rejected_tag;
      detail::fetcher_probes().rejected_tag.add();
      item.reset();
    }
    return item;
  }

  /// Counts `n` items that failed the pairing or RLC check.
  static void reject_sig(Rejections& tally, size_t n) {
    tally.rejected_sig += n;
    detail::fetcher_probes().rejected_sig.add(n);
  }

  /// The batch pairing stage: `check` runs the RLC check over `items`
  /// and returns the sorted positions that failed it. Those are counted;
  /// then every position is handed to `sort(i, verified)` in order, so the
  /// caller keeps the survivors and rates the slots behind them.
  template <class T, class Check, class Sort>
  static void settle(std::span<const T> items, Check&& check, Rejections& tally,
                     Sort&& sort) {
    if (items.empty()) return;
    const std::vector<size_t> bad = check(items);
    reject_sig(tally, bad.size());
    size_t next_bad = 0;
    for (size_t i = 0; i < items.size(); ++i) {
      const bool convicted = next_bad < bad.size() && bad[next_bad] == i;
      if (convicted) ++next_bad;
      sort(i, !convicted);
    }
  }

  /// The slot's verdict. A verified reply promotes it and resets its
  /// backoff — the only thing that earns the reset; a reject, a silence
  /// or a failed round trip demotes it.
  void rate(size_t slot, bool ok) {
    if (ok) {
      health_[slot] = std::min(config_.max_health, health_[slot] + 1);
      slot_backoff_[slot] = config_.base_backoff;
    } else {
      health_[slot] = std::max(config_.min_health, health_[slot] - 1);
    }
  }

  // ---- fetch_verified's state machine -----------------------------------

  void start_tag() {
    attempts_left_ = config_.attempts_per_tag;
    // Deliberately NO backoff reset here: slot_backoff_ is per-mirror
    // state that only a verified success clears.
    if (tag_index_ > 0) {
      ++stats_.fallback_steps;
      detail::fetcher_probes().fallback_steps.add();
    }
    attempt();
  }

  void attempt() {
    if (!busy_) return;
    if (attempts_left_ == 0) {
      // This tag's budget is spent: degrade precision before giving up.
      ++tag_index_;
      if (tag_index_ >= tags_.size()) {
        busy_ = false;
        live_attempt_ = 0;
        detail::fetcher_probes().failures.add();
        // Moved out first: the callback may start the next fetch.
        FailureFn failed = std::move(failed_);
        const FetchStats stats = stats_;
        if (failed) failed(stats);
        return;
      }
      start_tag();
      return;
    }
    --attempts_left_;
    ++stats_.attempts;
    detail::fetcher_probes().attempts.add();
    std::uint64_t id = ++attempt_seq_;
    live_attempt_ = id;
    // A synchronous transport (SocketTransport) may deliver — and settle
    // the attempt — inside request() itself; the id guards make the
    // deadline scheduled next a no-op in that case.
    source_->request(mirrors_[current_slot_], tags_[tag_index_],
                     [this, id](Bytes wire) { on_reply(id, wire); });
    timeline_.schedule(config_.reply_timeout, [this, id] { on_timeout(id); });
  }

  void on_reply(std::uint64_t id, Bytes wire) {
    if (!busy_ || id != live_attempt_) return;  // stale or already settled
    std::optional<core::BasicKeyUpdate<B>> update = admit<core::BasicKeyUpdate<B>>(
        scheme_.params(), wire, &tags_[tag_index_], stats_);
    if (update && !scheme_.verify_update(server_, *update)) {
      reject_sig(stats_, 1);
      update.reset();
    }
    if (!update) {
      fail_attempt();
      return;
    }
    // Verified: the ONLY path to acceptance.
    busy_ = false;
    live_attempt_ = 0;
    rate(current_slot_, true);
    detail::fetcher_probes().successes.add();
    BasicFetchResult<B> result;
    result.update = std::move(*update);
    result.via_fallback = tag_index_ > 0;
    result.completed_at = timeline_.now();
    result.stats = stats_;
    SuccessFn done = std::move(done_);  // the callback may start the next fetch
    done(result);
  }

  void on_timeout(std::uint64_t id) {
    if (!busy_ || id != live_attempt_) return;  // answered (or settled) in time
    ++stats_.timeouts;
    detail::fetcher_probes().timeouts.add();
    fail_attempt();
  }

  void fail_attempt() {
    live_attempt_ = 0;  // a late reply to this attempt is ignored
    rate(current_slot_, false);
    ++consecutive_failures_;
    if (consecutive_failures_ >= config_.failover_after && mirrors_.size() > 1) {
      rotate();
    }
    std::int64_t sleep = next_backoff();
    stats_.backoff_wait += static_cast<size_t>(sleep);
    detail::fetcher_probes().backoff_wait.add(static_cast<std::uint64_t>(sleep));
    timeline_.schedule(sleep, [this] { attempt(); });
  }

  void rotate() {
    ++stats_.failovers;
    detail::fetcher_probes().failovers.add();
    consecutive_failures_ = 0;
    // Healthiest alternative wins; ties resolve round-robin after the
    // current slot so equals are visited in order (this is what guarantees
    // an honest mirror is eventually reached).
    size_t best = current_slot_;
    int best_health = std::numeric_limits<int>::min();
    for (size_t step = 1; step < mirrors_.size(); ++step) {
      size_t slot = (current_slot_ + step) % mirrors_.size();
      if (health_[slot] > best_health) {
        best_health = health_[slot];
        best = slot;
      }
    }
    current_slot_ = best;
  }

  std::int64_t next_backoff() {
    // Decorrelated jitter: sleep ~ U[base, prev*3], capped. Growth is
    // exponential in expectation, but desynchronized across receivers.
    // `prev` is the CURRENT MIRROR's last sleep — per-slot and persistent
    // across tags and fetches, so a chronically failing replica keeps
    // its earned penalty until it serves a verified update.
    std::int64_t lo = config_.base_backoff;
    std::int64_t hi = std::min(config_.max_backoff, slot_backoff_[current_slot_] * 3);
    std::int64_t span = std::max<std::int64_t>(1, hi - lo + 1);
    Bytes draw = rng_.bytes(8);
    std::uint64_t r = bigint::BigInt<1>::from_bytes_be(draw).w[0];
    slot_backoff_[current_slot_] =
        lo + static_cast<std::int64_t>(r % static_cast<std::uint64_t>(span));
    return slot_backoff_[current_slot_];
  }

  core::BasicTreScheme<B> scheme_;
  core::BasicServerPublicKey<B> server_;
  UpdateSource* source_;
  server::Timeline& timeline_;
  std::vector<size_t> mirrors_;   // source mirror indices, preference order
  std::vector<int> health_;
  std::vector<std::int64_t> slot_backoff_;  // per-mirror, survives fetches
  FetcherConfig config_;
  hashing::HmacDrbg rng_;

  // Per-fetch state of fetch_verified.
  bool busy_ = false;
  std::vector<std::string> tags_;
  size_t tag_index_ = 0;
  size_t current_slot_ = 0;       // into mirrors_
  size_t attempts_left_ = 0;
  size_t consecutive_failures_ = 0;
  std::uint64_t attempt_seq_ = 0;
  std::uint64_t live_attempt_ = 0;  // 0 = none in flight
  FetchStats stats_;
  SuccessFn done_;
  FailureFn failed_;
};

using UpdateFetcher = BasicUpdateFetcher<core::Tre512Backend>;
using FetchResult = BasicFetchResult<core::Tre512Backend>;

extern template class BasicUpdateFetcher<core::Tre512Backend>;

}  // namespace tre::client
