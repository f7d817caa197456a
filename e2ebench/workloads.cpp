#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bls12/tre381.h"
#include "client/fetcher.h"
#include "daemon/store.h"
#include "hashing/drbg.h"
#include "threshold/dkg.h"
#include "threshold/threshold.h"
#include "timeserver/round.h"
#include "timeserver/timeline.h"

namespace e2e {

namespace {

using tre::Bytes;
using B = tre::bls12::Bls381Backend;
using Scheme = tre::bls12::Tre381Scheme;
using Update = tre::bls12::Update381;
using Sealed = tre::bls12::SealedCiphertext381;
using Fetcher = tre::client::BasicUpdateFetcher<B>;
using FetchResult = tre::client::BasicFetchResult<B>;
using TScheme = tre::threshold::BasicThresholdScheme<B>;
using ThresholdFetch = tre::Result<tre::client::BasicThresholdFetchResult<B>>;
using tre::client::SocketTransport;
using tre::daemon::Store;

constexpr const char* kSetName = "bls12-381";
constexpr size_t kPayloadBytes = 256;

Bytes seed_bytes(const char* label, std::uint64_t seed, unsigned rep) {
  return tre::to_bytes(std::string(label) + ":" + std::to_string(seed) + ":" +
                       std::to_string(rep));
}

std::uint64_t draw_u64(tre::hashing::RandomSource& rng) {
  Bytes b = rng.bytes(8);
  std::uint64_t v = 0;
  for (std::uint8_t x : b) v = v << 8 | x;
  return v;
}

/// splitmix64: the serve generator's request mix. A DRBG draw per request
/// would cost the generator more than the daemon spends on the reply.
struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

std::unique_ptr<SocketTransport> connect_to(std::initializer_list<std::uint16_t> ports) {
  std::vector<SocketTransport::Endpoint> eps;
  for (std::uint16_t p : ports) eps.push_back({"127.0.0.1", p});
  return std::make_unique<SocketTransport>(std::move(eps));
}

void put_or_throw(Store& store, const std::string& tag, Bytes wire) {
  if (!store.put(tag, std::move(wire)).ok()) {
    throw std::runtime_error("store refused " + tag);
  }
}

/// Base for the single-client-thread workloads: prepare (inputs, untimed),
/// op (timed, one op span), check (untimed, inside the window).
class SerialWorkload : public Workload {
 public:
  void run(Window& w, const Limit& limit, bool trace) override {
    tracer_.enable(trace);
    attach(trace ? &tracer_ : nullptr);
    const clockid_t me = this_thread_cpu_clock();
    const double cpu0 = cpu_seconds(me);
    w.start_ns = mono_ns();
    for (std::uint64_t n = 0; !limit.done(n, mono_ns()); ++n) {
      prepare();
      tracer_.begin_op(op_seq_++);
      const std::uint64_t t0 = mono_ns();
      {
        Tracer::Scope span(&tracer_, SpanName::kOp);
        op();
      }
      w.latency.record(mono_ns() - t0);
      check(w);
    }
    w.end_ns = mono_ns();
    w.gen_cpu_s.push_back(cpu_seconds(me) - cpu0);
    tracer_.enable(false);
    attach(nullptr);
  }

  std::vector<const Tracer*> tracers() const override { return {&tracer_}; }
  unsigned connections() const override { return 1; }

 protected:
  virtual void prepare() = 0;
  virtual void op() = 0;
  virtual void check(Window& w) = 0;
  /// Points every transport decorator at the tracer (nullptr = off).
  virtual void attach(Tracer* t) = 0;

  /// Runs one op outside any window as part of set-up; throws if its
  /// check fails.
  void warm_up(const char* what) {
    Window w;
    prepare();
    op();
    check(w);
    if (w.failed != 0) {
      throw std::runtime_error(std::string(what) + " warm-up: " + w.first_failure);
    }
  }

  std::shared_ptr<const tre::bls12::Bls12Ctx> ctx_ = tre::bls12::Bls12Ctx::get();
  tre::server::Timeline timeline_{0};
  Tracer tracer_;

 private:
  std::uint64_t op_seq_ = 0;
};

// --- release --------------------------------------------------------------

/// One message through the paper's path per op: FO-seal to one of
/// kReceivers receivers under the current epoch tag; the server issues
/// and stores a new update every kPerEpoch messages; the receiver fetches
/// the update from tred over a socket, verifies it and opens. An epoch's
/// messages go to distinct receivers, so no (receiver, tag) pair base is
/// ever reused while tags and receiver-key checks always hit.
class Release final : public SerialWorkload {
 public:
  static constexpr size_t kReceivers = 16;
  static constexpr size_t kPerEpoch = 8;
  static_assert(kPerEpoch <= kReceivers);

  void setup(std::uint64_t seed, unsigned rep) override {
    inputs_.emplace(seed_bytes("release/inputs", seed, rep));
    sender_rng_.emplace(seed_bytes("release/sender", seed, rep));
    tag_base_ = draw_u64(*inputs_) % 1000000;
    scheme_.emplace(ctx_);
    tre::hashing::HmacDrbg keys(seed_bytes("release/keys", seed, rep));
    server_ = scheme_->server_keygen(keys);
    for (size_t r = 0; r < kReceivers; ++r) {
      users_.push_back(scheme_->user_keygen(server_.pub, keys));
    }
    store_ = std::make_shared<Store>();
    store_->set_server_key(kSetName, server_.pub.to_bytes());
    daemon_ = std::make_unique<DaemonThread>(store_);
    transport_ = connect_to({daemon_->port()});
    source_ = std::make_unique<TracedSource>(*transport_);
    fetcher_ = std::make_unique<Fetcher>(*scheme_, server_.pub, *source_, timeline_,
                                         std::vector<size_t>{0},
                                         seed_bytes("release/jitter", seed, rep));
    // A long-running client has already checked every receiver key and
    // prepared the G2 lines of each a·sG; one message per receiver.
    for (size_t r = 0; r < kReceivers; ++r) {
      next_receiver_ = r;
      warm_up("release");
    }
    next_receiver_.reset();
  }

  std::vector<clockid_t> daemon_clocks() const override {
    return {daemon_->cpu_clock()};
  }
  bool daemon_crashed() const override { return daemon_->crashed(); }
  TracedSource::Counts transport_counts() const override {
    return source_->counts();
  }
  PriceInputs price_inputs() const override {
    PriceInputs in;
    for (size_t i = 0; i < 32; ++i) in.tags.push_back(epoch_tag(1000000 + i));
    in.g1 = ctx_->hash_to_g1(tre::to_bytes(tag_));
    in.g2 = server_.pub.sg;
    in.g1_wire.assign(wire_.end() - 49, wire_.end());
    in.multiexp_points = 64;
    return in;
  }
  const char* op_unit() const override { return "message"; }

 protected:
  void prepare() override {
    if (next_receiver_) {
      receiver_ = *next_receiver_;
    } else {
      if (sent_ % kPerEpoch == 0) {
        // A fresh seeded receiver order for each epoch (Fisher-Yates).
        for (size_t i = 0; i < kReceivers; ++i) order_[i] = i;
        for (size_t i = kReceivers - 1; i > 0; --i) {
          std::swap(order_[i], order_[draw_u64(*inputs_) % (i + 1)]);
        }
      }
      receiver_ = order_[sent_ % kPerEpoch];
    }
    payload_ = inputs_->bytes(kPayloadBytes);
  }

  void op() override {
    Tracer* tr = &tracer_;
    if (sent_ % kPerEpoch == 0) {
      tag_ = epoch_tag(epoch_++);
      Update u;
      {
        Tracer::Scope s(tr, SpanName::kIssue);
        u = scheme_->issue_update(server_, tag_);
      }
      wire_ = u.to_bytes();
      Tracer::Scope s(tr, SpanName::kStorePut);
      put_ok_ = store_->put(tag_, wire_).ok();
    }
    ++sent_;
    {
      Tracer::Scope s(tr, SpanName::kSeal);
      ct_ = scheme_->seal(tre::core::Mode::kFo, payload_, users_[receiver_].pub,
                          server_.pub, tag_, *sender_rng_);
    }
    got_.reset();
    {
      Tracer::Scope s(tr, SpanName::kFetch);
      fetcher_->fetch_verified({tag_},
                               [this](const FetchResult& r) { got_ = r.update; });
      while (fetcher_->busy()) timeline_.advance_by(1);
    }
    // Fire the reply deadline the fetcher scheduled (a no-op once answered).
    timeline_.advance_by(tre::client::FetcherConfig{}.reply_timeout);
    opened_.reset();
    if (got_) {
      Tracer::Scope s(tr, SpanName::kOpen);
      opened_ = scheme_->open(*ct_, users_[receiver_].a, *got_, server_.pub);
    }
  }

  void check(Window& w) override {
    w.attempted += 1;
    if (!put_ok_) return w.fail(1, "release: store refused " + tag_);
    if (!got_) return w.fail(1, "release: no verified update for " + tag_);
    if (got_->to_bytes() != wire_) {
      return w.fail(1, "release: fetched update differs from the issued bytes");
    }
    if (!opened_ || *opened_ != payload_) {
      return w.fail(1, "release: opened plaintext differs from the sealed one");
    }
    w.ops += 1;
  }

  void attach(Tracer* t) override { source_->attach(t); }

 private:
  std::string epoch_tag(std::uint64_t n) const {
    return "epoch:" + std::to_string(tag_base_ + n);
  }

  std::optional<tre::hashing::HmacDrbg> inputs_;
  std::optional<tre::hashing::HmacDrbg> sender_rng_;
  std::uint64_t tag_base_ = 0;
  std::optional<Scheme> scheme_;
  tre::bls12::ServerKey381 server_;
  std::vector<tre::bls12::UserKey381> users_;
  std::shared_ptr<Store> store_;
  std::unique_ptr<DaemonThread> daemon_;
  std::unique_ptr<SocketTransport> transport_;
  std::unique_ptr<TracedSource> source_;
  std::unique_ptr<Fetcher> fetcher_;

  std::optional<size_t> next_receiver_;
  std::array<size_t, kReceivers> order_{};
  size_t receiver_ = 0;
  Bytes payload_;
  std::uint64_t sent_ = 0;
  std::uint64_t epoch_ = 0;
  std::string tag_;
  Bytes wire_;
  bool put_ok_ = true;
  std::optional<Sealed> ct_;
  std::optional<Update> got_;
  std::optional<Bytes> opened_;
};

// --- catchup --------------------------------------------------------------

/// One batch-verified kGetRange page per op from an archive larger than
/// the scheme's tag cache. Each pass over the archive is a fresh receiver
/// (new scheme, fetcher and connection), so every tag is hashed cold.
/// Pages are short (README.md, Traffic choices) so that some pages of
/// every run fall in a quiet stretch of a shared host.
class Catchup final : public SerialWorkload {
 public:
  static constexpr size_t kArchive = 1152;  // > the 1024-entry tag cache
  static constexpr std::uint32_t kPage = 16;

  void setup(std::uint64_t seed, unsigned rep) override {
    seed_ = seed;
    rep_ = rep;
    tre::hashing::HmacDrbg keys(seed_bytes("catchup/keys", seed, rep));
    const std::uint64_t tag_base = draw_u64(keys) % 1000000;
    Scheme issuer(ctx_);
    server_ = issuer.server_keygen(keys);
    store_ = std::make_shared<Store>();
    store_->set_server_key(kSetName, server_.pub.to_bytes());
    for (size_t i = 0; i < kArchive; ++i) {
      tags_.push_back("epoch:" + std::to_string(tag_base + i));
      wires_.push_back(issuer.issue_update(server_, tags_.back()).to_bytes());
      put_or_throw(*store_, tags_.back(), wires_.back());
    }
    daemon_ = std::make_unique<DaemonThread>(store_);
    pos_ = kArchive;  // the first op starts a fresh receiver
  }

  std::vector<clockid_t> daemon_clocks() const override {
    return {daemon_->cpu_clock()};
  }
  bool daemon_crashed() const override { return daemon_->crashed(); }
  TracedSource::Counts transport_counts() const override {
    TracedSource::Counts c = retired_;
    if (source_) c += source_->counts();
    return c;
  }
  PriceInputs price_inputs() const override {
    PriceInputs in;
    in.tags.assign(tags_.begin(), tags_.begin() + 32);
    in.g1 = ctx_->hash_to_g1(tre::to_bytes(tags_[0]));
    in.g2 = server_.pub.sg;
    in.g1_wire.assign(wires_[0].end() - 49, wires_[0].end());
    in.multiexp_points = kPage;
    return in;
  }
  const char* op_unit() const override { return "update"; }
  const char* latency_unit() const override { return "page"; }

 protected:
  void prepare() override {}

  void op() override {
    if (pos_ >= kArchive) fresh_receiver();
    Tracer::Scope s(&tracer_, SpanName::kFetch);
    page_ = fetcher_->fetch_range_verified(0, pos_, kPage);
  }

  void check(Window& w) override {
    const size_t n = std::min<size_t>(kPage, kArchive - pos_);
    w.attempted += n;
    size_t matched = 0;
    if (page_ && page_->start == pos_ && page_->total == kArchive &&
        page_->rejected_parse == 0 && page_->rejected_sig == 0) {
      const size_t m = std::min(n, page_->updates.size());
      for (size_t i = 0; i < m; ++i) {
        if (page_->updates[i].to_bytes() == wires_[pos_ + i]) ++matched;
      }
    }
    w.ops += matched;
    if (matched != n) {
      w.fail(n - matched, "catchup: page at " + std::to_string(pos_) + " verified " +
                              std::to_string(matched) + " of " + std::to_string(n));
    }
    pos_ += n;
  }

  void attach(Tracer* t) override {
    attached_ = t;
    if (source_) source_->attach(t);
  }

 private:
  void fresh_receiver() {
    fetcher_.reset();
    if (source_) retired_ += source_->counts();
    source_.reset();
    transport_.reset();
    transport_ = connect_to({daemon_->port()});
    source_ = std::make_unique<TracedSource>(*transport_);
    source_->attach(attached_);
    fetcher_ = std::make_unique<Fetcher>(
        Scheme(ctx_), server_.pub, *source_, timeline_, std::vector<size_t>{0},
        seed_bytes("catchup/jitter", seed_, rep_));
    pos_ = 0;
  }

  std::uint64_t seed_ = 0;
  unsigned rep_ = 0;
  tre::bls12::ServerKey381 server_;
  std::vector<std::string> tags_;
  std::vector<Bytes> wires_;
  std::shared_ptr<Store> store_;
  std::unique_ptr<DaemonThread> daemon_;
  std::unique_ptr<SocketTransport> transport_;
  std::unique_ptr<TracedSource> source_;
  std::unique_ptr<Fetcher> fetcher_;
  TracedSource::Counts retired_;
  Tracer* attached_ = nullptr;

  size_t pos_ = 0;
  std::optional<tre::client::BasicRangeFetchResult<B>> page_;
};

// --- beacon ---------------------------------------------------------------

/// One 2-of-3 threshold round per op: every beacon node issues its
/// partial into its own tred; the receiver seals to the group key, runs
/// fetch_threshold (batched partial check, Lagrange combine, aggregate
/// verify) over sockets and opens.
class Beacon final : public SerialWorkload {
 public:
  static constexpr size_t kNodes = 3;
  static constexpr size_t kThreshold = 2;

  void setup(std::uint64_t seed, unsigned rep) override {
    inputs_.emplace(seed_bytes("beacon/inputs", seed, rep));
    sender_rng_.emplace(seed_bytes("beacon/sender", seed, rep));
    round_ = draw_u64(*inputs_) % 1000000;
    tscheme_.emplace(ctx_);
    tre::hashing::HmacDrbg keys(seed_bytes("beacon/keys", seed, rep));
    auto dkg = tre::threshold::run_dkg<B>(ctx_, {kNodes, kThreshold}, keys);
    if (!dkg.ok()) throw std::runtime_error("beacon: DKG failed");
    key_ = dkg->key;
    shares_ = dkg->shares;
    secret_ = tscheme_->recover_secret(key_, shares_);
    group_ = key_.as_server_public_key();
    scheme_.emplace(ctx_);
    user_ = scheme_->user_keygen(group_, keys);
    for (size_t i = 0; i < kNodes; ++i) {
      stores_.push_back(std::make_shared<Store>());
      stores_.back()->set_server_key(kSetName, group_.to_bytes());
      daemons_.push_back(std::make_unique<DaemonThread>(stores_.back()));
    }
    transport_ = connect_to(
        {daemons_[0]->port(), daemons_[1]->port(), daemons_[2]->port()});
    source_ = std::make_unique<TracedSource>(*transport_);
    fetcher_ = std::make_unique<Fetcher>(*scheme_, group_, *source_, timeline_,
                                         std::vector<size_t>{0, 1, 2},
                                         seed_bytes("beacon/jitter", seed, rep));
    warm_up("beacon");
  }

  std::vector<clockid_t> daemon_clocks() const override {
    std::vector<clockid_t> out;
    for (const auto& d : daemons_) out.push_back(d->cpu_clock());
    return out;
  }
  bool daemon_crashed() const override {
    for (const auto& d : daemons_) {
      if (d->crashed()) return true;
    }
    return false;
  }
  TracedSource::Counts transport_counts() const override {
    return source_->counts();
  }
  PriceInputs price_inputs() const override {
    PriceInputs in;
    for (size_t i = 0; i < 32; ++i) {
      in.tags.push_back(tre::server::round_tag(round_ + 1000000 + i));
    }
    in.g1 = ctx_->hash_to_g1(tre::to_bytes(tag_));
    in.g2 = key_.pub_shares[0];
    Bytes wire = tscheme_->issue_partial(shares_[0], tag_).to_bytes();
    in.g1_wire.assign(wire.end() - 49, wire.end());
    in.multiexp_points = kThreshold;
    return in;
  }
  unsigned connections() const override { return kNodes; }
  const char* op_unit() const override { return "round"; }

 protected:
  void prepare() override {
    tag_ = tre::server::round_tag(round_++);
    payload_ = inputs_->bytes(kPayloadBytes);
  }

  void op() override {
    Tracer* tr = &tracer_;
    put_ok_ = true;
    for (size_t i = 0; i < kNodes; ++i) {
      tre::threshold::BasicPartialUpdate<B> p;
      {
        Tracer::Scope s(tr, SpanName::kIssuePartial);
        p = tscheme_->issue_partial(shares_[i], tag_);
      }
      Bytes wire = p.to_bytes();
      Tracer::Scope s(tr, SpanName::kStorePut);
      put_ok_ = stores_[i]->put_partial(tag_, std::move(wire)).ok() && put_ok_;
    }
    {
      Tracer::Scope s(tr, SpanName::kSeal);
      ct_ = scheme_->seal(tre::core::Mode::kFo, payload_, user_.pub, group_, tag_,
                          *sender_rng_);
    }
    {
      Tracer::Scope s(tr, SpanName::kFetch);
      res_.emplace(fetcher_->fetch_threshold(*tscheme_, key_, tag_));
    }
    opened_.reset();
    if (res_->ok()) {
      Tracer::Scope s(tr, SpanName::kOpen);
      opened_ = scheme_->open(*ct_, user_.a, res_->value().update, group_);
    }
  }

  void check(Window& w) override {
    w.attempted += 1;
    if (!put_ok_) return w.fail(1, "beacon: store refused a partial for " + tag_);
    if (!res_->ok()) {
      return w.fail(1, std::string("beacon: fetch_threshold failed: ") + res_->message());
    }
    const auto& r = res_->value();
    if (r.partials_used != kThreshold || !r.byzantine_nodes.empty() ||
        r.rejected_parse + r.rejected_tag + r.rejected_dup + r.rejected_sig != 0) {
      return w.fail(1, "beacon: honest quorum reported rejects");
    }
    // The aggregate must be byte-identical to the update a single server
    // holding the group secret issues for this round.
    const Update expected{tag_, ctx_->g1_mul(ctx_->hash_to_g1(tre::to_bytes(tag_)), secret_)};
    if (r.update.to_bytes() != expected.to_bytes()) {
      return w.fail(1, "beacon: aggregate differs from the group-key update");
    }
    if (!opened_ || *opened_ != payload_) {
      return w.fail(1, "beacon: opened plaintext differs from the sealed one");
    }
    w.ops += 1;
  }

  void attach(Tracer* t) override { source_->attach(t); }

 private:
  std::optional<tre::hashing::HmacDrbg> inputs_;
  std::optional<tre::hashing::HmacDrbg> sender_rng_;
  std::uint64_t round_ = 0;
  std::optional<TScheme> tscheme_;
  tre::threshold::BasicThresholdKey<B> key_;
  std::vector<tre::threshold::BasicServerShare<B>> shares_;
  tre::core::Scalar secret_;
  tre::bls12::ServerPublicKey381 group_;
  std::optional<Scheme> scheme_;
  tre::bls12::UserKey381 user_;
  std::vector<std::shared_ptr<Store>> stores_;
  std::vector<std::unique_ptr<DaemonThread>> daemons_;
  std::unique_ptr<SocketTransport> transport_;
  std::unique_ptr<TracedSource> source_;
  std::unique_ptr<Fetcher> fetcher_;

  std::string tag_;
  Bytes payload_;
  bool put_ok_ = true;
  std::optional<Sealed> ct_;
  std::optional<ThresholdFetch> res_;
  std::optional<Bytes> opened_;
};

// --- serve ----------------------------------------------------------------

/// kGetUpdate replies from one tred. nproc−1 generator threads (the
/// calling thread is generator 0) each own one connection with one
/// outstanding request, so the daemon thread plus the generators fill
/// nproc. Most requests ask for the newest tag; a seeded share asks for
/// an older archived tag or for the next, not-yet-issued tag, for which
/// kNotFound is the correct reply.
class Serve final : public Workload {
 public:
  static constexpr size_t kArchived = 64;
  static constexpr unsigned kNewestPct = 80;
  static constexpr unsigned kOlderPct = 15;  // the rest asks for the next tag

  void setup(std::uint64_t seed, unsigned rep) override {
    tre::hashing::HmacDrbg keys(seed_bytes("serve/keys", seed, rep));
    const std::uint64_t tag_base = draw_u64(keys) % 1000000;
    Scheme issuer(ctx_);
    server_ = issuer.server_keygen(keys);
    store_ = std::make_shared<Store>();
    store_->set_server_key(kSetName, server_.pub.to_bytes());
    for (size_t i = 0; i <= kArchived; ++i) {
      tags_.push_back("epoch:" + std::to_string(tag_base + i));
    }
    for (size_t i = 0; i < kArchived; ++i) {
      wires_.push_back(issuer.issue_update(server_, tags_[i]).to_bytes());
      put_or_throw(*store_, tags_[i], wires_[i]);
    }
    daemon_ = std::make_unique<DaemonThread>(store_);
    const unsigned conns = std::max(1u, online_cpus() - 1);
    for (unsigned c = 0; c < conns; ++c) {
      gens_.push_back(std::make_unique<Gen>());
      Gen& g = *gens_.back();
      g.mix.s = seed * 0x100000001b3ULL + rep * 0x10001ULL + c;
      g.transport = connect_to({daemon_->port()});
      g.source = std::make_unique<TracedSource>(*g.transport);
      // Every archived tag and the missing one, once per connection.
      Window w;
      for (size_t i = 0; i <= kArchived; ++i) request(g, i, w);
      if (w.failed != 0) throw std::runtime_error("serve warm-up: " + w.first_failure);
    }
  }

  void run(Window& w, const Limit& limit, bool trace) override {
    const size_t n = gens_.size();
    std::vector<Window> parts(n);
    w.start_ns = w.end_ns = mono_ns();
    {
      std::vector<std::jthread> threads;  // joined on scope exit
      for (size_t g = 1; g < n; ++g) {
        threads.emplace_back([&, g] { generate(g, parts[g], limit, trace); });
      }
      generate(0, parts[0], limit, trace);
    }
    for (Window& p : parts) w.merge(std::move(p));
  }

  std::vector<clockid_t> daemon_clocks() const override {
    return {daemon_->cpu_clock()};
  }
  bool daemon_crashed() const override { return daemon_->crashed(); }
  std::vector<const Tracer*> tracers() const override {
    std::vector<const Tracer*> out;
    for (const auto& g : gens_) out.push_back(&g->tracer);
    return out;
  }
  TracedSource::Counts transport_counts() const override {
    TracedSource::Counts c;
    for (const auto& g : gens_) c += g->source->counts();
    return c;
  }
  PriceInputs price_inputs() const override {
    PriceInputs in;
    in.tags.assign(tags_.begin(), tags_.begin() + 32);
    in.g1 = ctx_->hash_to_g1(tre::to_bytes(tags_[0]));
    in.g2 = server_.pub.sg;
    in.g1_wire.assign(wires_.back().end() - 49, wires_.back().end());
    in.multiexp_points = 64;
    in.client_decodes = false;  // the generator compares bytes, never parses
    return in;
  }
  unsigned generator_threads() const override {
    return static_cast<unsigned>(gens_.size());
  }
  unsigned connections() const override {
    return static_cast<unsigned>(gens_.size());
  }
  const char* op_unit() const override { return "reply"; }

 private:
  struct Gen {
    std::unique_ptr<SocketTransport> transport;
    std::unique_ptr<TracedSource> source;
    Tracer tracer;
    SplitMix mix;  // this connection's request mix, continued across windows
  };

  /// One kGetUpdate for tags_[i]; i == kArchived is the missing tag.
  /// Returns the round-trip latency; checks the reply into `w`.
  std::uint64_t request(Gen& g, size_t i, Window& w) {
    std::optional<Bytes> got;
    const std::uint64_t t0 = mono_ns();
    {
      Tracer::Scope span(&g.tracer, SpanName::kOp);
      g.source->request(0, tags_[i], [&got](Bytes b) { got = std::move(b); });
    }
    const std::uint64_t lat = mono_ns() - t0;
    w.attempted += 1;
    if (i < kArchived) {
      if (!got || *got != wires_[i]) {
        w.fail(1, "serve: reply for " + tags_[i] + " differs from the issued bytes");
        return lat;
      }
    } else {
      const auto& err = g.transport->last_error();
      if (got || !err || err->code != tre::Errc::kNotFound) {
        w.fail(1, "serve: expected kNotFound for " + tags_[i]);
        return lat;
      }
    }
    w.ops += 1;
    return lat;
  }

  void generate(size_t g, Window& w, const Limit& limit, bool trace) {
    Gen& gen = *gens_[g];
    try {
      gen.tracer.enable(trace);
      gen.source->attach(trace ? &gen.tracer : nullptr);
      Limit mine = limit;
      if (limit.max_ops > 0) {
        // Op-count mode: split the count; generator 0 takes the remainder.
        const std::uint64_t n = gens_.size();
        mine.max_ops = limit.max_ops / n + (g == 0 ? limit.max_ops % n : 0);
      }
      const clockid_t me = this_thread_cpu_clock();
      const double cpu0 = cpu_seconds(me);
      w.start_ns = mono_ns();
      for (std::uint64_t n = 0; !mine.done(n, mono_ns()); ++n) {
        const std::uint64_t r = gen.mix.next();
        const unsigned pct = static_cast<unsigned>(r % 100);
        size_t i = kArchived - 1;  // newest
        if (pct >= kNewestPct + kOlderPct) {
          i = kArchived;  // next, not yet issued
        } else if (pct >= kNewestPct) {
          i = static_cast<size_t>((r >> 8) % (kArchived - 1));
        }
        gen.tracer.begin_op(n);
        w.latency.record(request(gen, i, w));
      }
      w.end_ns = mono_ns();
      w.gen_cpu_s.push_back(cpu_seconds(me) - cpu0);
    } catch (const std::exception& e) {
      w.fail(1, std::string("serve: generator failed: ") + e.what());
      w.end_ns = mono_ns();
    }
    gen.tracer.enable(false);
    gen.source->attach(nullptr);
  }

  std::shared_ptr<const tre::bls12::Bls12Ctx> ctx_ = tre::bls12::Bls12Ctx::get();
  tre::bls12::ServerKey381 server_;
  std::vector<std::string> tags_;  // kArchived issued, then the next one
  std::vector<Bytes> wires_;
  std::shared_ptr<Store> store_;
  std::unique_ptr<DaemonThread> daemon_;
  std::vector<std::unique_ptr<Gen>> gens_;
};

}  // namespace

LatencyRecorder::LatencyRecorder()
    : counts_(bucket(~std::uint64_t{0}) + 1, 0), sums_(counts_.size(), 0) {}

size_t LatencyRecorder::bucket(std::uint64_t ns) {
  ns = std::min(ns, (std::uint64_t{1} << kMaxBits) - 1);
  if (ns < (std::uint64_t{1} << kSubBits)) return static_cast<size_t>(ns);
  const unsigned shift = static_cast<unsigned>(std::bit_width(ns)) - 1 - kSubBits;
  return (static_cast<size_t>(shift + 1) << kSubBits) +
         static_cast<size_t>((ns >> shift) - (std::uint64_t{1} << kSubBits));
}

void LatencyRecorder::record(std::uint64_t ns) {
  const size_t b = bucket(ns);
  counts_[b] += 1;
  sums_[b] += ns;
  count_ += 1;
  sum_ += ns;
}

void LatencyRecorder::merge(const LatencyRecorder& o) {
  for (size_t b = 0; b < o.counts_.size(); ++b) {
    counts_[b] += o.counts_[b];
    sums_[b] += o.sums_[b];
  }
  count_ += o.count_;
  sum_ += o.sum_;
}

double LatencyRecorder::percentile(double q) const {
  if (count_ == 0) return 0;
  const auto rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))), 1, count_);
  std::uint64_t seen = 0;
  for (size_t b = 0; b < counts_.size(); ++b) {
    seen += counts_[b];
    if (seen >= rank) {
      return static_cast<double>(sums_[b]) / static_cast<double>(counts_[b]);
    }
  }
  return 0;
}

void Window::merge(Window&& o) {
  latency.merge(o.latency);
  ops += o.ops;
  attempted += o.attempted;
  failed += o.failed;
  if (first_failure.empty()) first_failure = std::move(o.first_failure);
  end_ns = std::max(end_ns, o.end_ns);
  gen_cpu_s.insert(gen_cpu_s.end(), o.gen_cpu_s.begin(), o.gen_cpu_s.end());
}

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "release") return std::make_unique<Release>();
  if (name == "catchup") return std::make_unique<Catchup>();
  if (name == "beacon") return std::make_unique<Beacon>();
  if (name == "serve") return std::make_unique<Serve>();
  return nullptr;
}

}  // namespace e2e
