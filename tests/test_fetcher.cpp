// UpdateFetcher: the hardened verify-everything fetch pipeline. The
// acceptance bar for this suite is the paper's own trust argument —
// updates self-authenticate, so receivers survive arbitrary mirror
// misbehaviour as long as ONE honest replica exists, and never accept
// bytes that fail the pairing check.
#include "client/fetcher.h"
#include "client/simnet_source.h"

#include <gtest/gtest.h>

#include <limits>

#include "bls12/tre381.h"
#include "timeserver/timespec.h"

namespace tre::client {
namespace {

using simnet::ByzantineMode;
using simnet::FaultPlan;
using simnet::LinkSpec;
using simnet::MirroredArchive;
using simnet::Network;
using simnet::NodeId;

class FetcherTest : public ::testing::Test {
 protected:
  FetcherTest()
      : timeline_(0),
        net_(timeline_, to_bytes("fetcher-net")),
        plan_(to_bytes("fetcher-plan")),
        params_(params::load("tre-toy-96")),
        scheme_(params_),
        rng_(to_bytes("fetcher-rng")),
        server_(scheme_.server_keygen(rng_)) {
    net_.set_fault_plan(&plan_);
  }

  // Builds a cluster and a fetcher over all its mirrors for node rx_.
  std::unique_ptr<MirroredArchive> cluster(size_t mirrors) {
    auto c = std::make_unique<MirroredArchive>(params_, net_, timeline_, mirrors,
                                               LinkSpec{.base_delay = 1});
    rx_ = net_.add_node("rx");
    return c;
  }

  // The simnet leg of the transport seam; sources must outlive fetchers.
  SimnetSource& source(MirroredArchive& archive,
                       LinkSpec access = LinkSpec{.base_delay = 1}) {
    sources_.push_back(
        std::make_unique<SimnetSource>(archive, rx_, access));
    return *sources_.back();
  }

  std::unique_ptr<UpdateFetcher> fetcher(MirroredArchive& archive,
                                         FetcherConfig cfg = {}) {
    std::vector<size_t> order(archive.mirror_count());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    return std::make_unique<UpdateFetcher>(scheme_, server_.pub,
                                           source(archive), timeline_, order,
                                           to_bytes("fetcher-jitter"), cfg);
  }

  core::KeyUpdate update(const std::string& tag) {
    return scheme_.issue_update(server_, tag);
  }

  server::Timeline timeline_;
  Network net_;
  FaultPlan plan_;
  std::shared_ptr<const params::GdhParams> params_;
  core::TreScheme scheme_;
  hashing::HmacDrbg rng_;
  core::ServerKeyPair server_;
  NodeId rx_ = 0;
  std::vector<std::unique_ptr<SimnetSource>> sources_;
};

TEST_F(FetcherTest, HonestMirrorHappyPath) {
  auto c = cluster(2);
  c->publish(update("T1"));
  timeline_.advance_to(2);

  auto f = fetcher(*c);
  std::optional<FetchResult> got;
  f->fetch_verified({"T1"}, [&](const FetchResult& r) { got = r; });
  timeline_.advance_to(50);

  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(scheme_.verify_update(server_.pub, got->update));
  EXPECT_EQ(got->update.tag, "T1");
  EXPECT_FALSE(got->via_fallback);
  EXPECT_EQ(got->stats.total_rejected(), 0u);
  EXPECT_GE(f->health(0), 1);  // success promoted the mirror
  EXPECT_FALSE(f->busy());
}

// The headline property: all-but-one mirrors Byzantine — one of each
// flavour — and the fetcher still converges on a VERIFIED update with
// zero forged acceptances.
TEST_F(FetcherTest, SingleHonestMirrorSuffices) {
  auto c = cluster(4);
  plan_.set_byzantine(c->mirror_node(0), ByzantineMode::kBitFlip);
  plan_.set_byzantine(c->mirror_node(1), ByzantineMode::kGarbage);
  plan_.set_byzantine(c->mirror_node(2), ByzantineMode::kRelabel);
  // Mirror 3 is honest.
  c->publish(update("stale"));  // relabel ammunition
  c->publish(update("T1"));
  timeline_.advance_to(2);

  FetcherConfig cfg;
  cfg.failover_after = 2;
  cfg.attempts_per_tag = 32;
  auto f = fetcher(*c, cfg);
  std::optional<FetchResult> got;
  f->fetch_verified({"T1"}, [&](const FetchResult& r) { got = r; });
  timeline_.advance_to(2000);

  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(scheme_.verify_update(server_.pub, got->update));
  EXPECT_EQ(got->update, update("T1"));  // bit-exact: the genuine signature
  EXPECT_GT(got->stats.total_rejected(), 0u);  // Byzantine replies were seen
  EXPECT_GT(got->stats.failovers, 0u);
  // Misbehaving replicas were demoted below the honest one.
  EXPECT_GT(f->health(3), f->health(0));
  EXPECT_GT(f->health(3), f->health(1));
  EXPECT_GT(f->health(3), f->health(2));
}

TEST_F(FetcherTest, RejectionCausesAreAttributed) {
  // One mirror per adversary; no honest mirror, bounded budget, so every
  // counter fills and the fetch ultimately fails — with zero accepts.
  auto c = cluster(3);
  plan_.set_byzantine(c->mirror_node(0), ByzantineMode::kBitFlip);
  plan_.set_byzantine(c->mirror_node(1), ByzantineMode::kRelabel);
  plan_.set_byzantine(c->mirror_node(2), ByzantineMode::kDrop);
  c->publish(update("stale"));
  c->publish(update("T1"));
  timeline_.advance_to(2);

  FetcherConfig cfg;
  cfg.failover_after = 1;  // rotate on every failure: visit all three
  cfg.attempts_per_tag = 12;
  auto f = fetcher(*c, cfg);
  bool succeeded = false;
  std::optional<FetchStats> failure;
  f->fetch_verified({"T1"}, [&](const FetchResult&) { succeeded = true; },
                    [&](const FetchStats& s) { failure = s; });
  timeline_.advance_to(5000);

  EXPECT_FALSE(succeeded);  // nothing verifiable was ever served
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->attempts, 12u);
  // A flipped bit lands either in the point encoding (parse reject) or
  // the tag bytes (tag/sig reject); relabelling always fails the pairing
  // check; the dropper only produces timeouts.
  EXPECT_GT(failure->total_rejected(), 0u);
  EXPECT_GT(failure->rejected_sig, 0u);
  EXPECT_GT(failure->timeouts, 0u);
}

TEST_F(FetcherTest, SurvivesHeavyLossAndJitter) {
  auto c = cluster(2);
  c->publish(update("T1"));
  timeline_.advance_to(5);

  // 50% loss, 0-3 s jitter on the access link, both directions.
  rx_ = net_.add_node("rx-lossy");
  std::vector<size_t> order = {0, 1};
  FetcherConfig cfg;
  cfg.reply_timeout = 10;  // > worst-case RTT under jitter
  cfg.attempts_per_tag = 64;
  UpdateFetcher f(scheme_, server_.pub,
                  source(*c, LinkSpec{.base_delay = 1, .jitter = 3, .loss = 0.5}),
                  timeline_, order, to_bytes("lossy-jitter"), cfg);
  std::optional<FetchResult> got;
  f.fetch_verified({"T1"}, [&](const FetchResult& r) { got = r; });
  timeline_.advance_to(5000);

  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(scheme_.verify_update(server_.pub, got->update));
}

TEST_F(FetcherTest, FallsBackToCoarserChainTag) {
  auto c = cluster(2);
  // The precise second-level update never appears (say the server's
  // second-granularity feed is partitioned away); the minute boundary
  // broadcast does.
  server::TimeSpec release =
      server::TimeSpec::from_unix(1117990830, server::Granularity::kSecond);
  auto chain = server::fallback_chain(release, server::Granularity::kMinute);
  ASSERT_EQ(chain.size(), 2u);
  c->publish(update(chain[1].canonical()));
  timeline_.advance_to(2);

  FetcherConfig cfg;
  cfg.attempts_per_tag = 3;  // burn the precise budget quickly
  auto f = fetcher(*c, cfg);
  std::optional<FetchResult> got;
  f->fetch_release(release, server::Granularity::kMinute,
                   [&](const FetchResult& r) { got = r; });
  timeline_.advance_to(5000);

  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->via_fallback);
  EXPECT_EQ(got->stats.fallback_steps, 1u);
  EXPECT_EQ(got->update.tag, chain[1].canonical());

  // And the coarse update actually opens a ResilientTre ciphertext for
  // the precise release — precision degraded, availability kept.
  server::ResilientTre resilient(params_);
  core::UserKeyPair user = scheme_.user_keygen(server_.pub, rng_);
  Bytes msg = to_bytes("fallback path works");
  core::AnyCiphertext ct = resilient.encrypt(msg, user.pub, server_.pub, release,
                                             rng_, server::Granularity::kMinute);
  EXPECT_EQ(resilient.decrypt(ct, user.a, got->update), msg);
}

TEST_F(FetcherTest, MirrorCrashAndRecoveryWithinOneFetch) {
  auto c = cluster(1);
  c->publish(update("T1"));
  // The only mirror takes a nap covering replication AND early polls;
  // a later publish refreshes it after recovery.
  plan_.crash_node(c->mirror_node(0), 0, 60);
  timeline_.schedule(70, [&] { c->publish(update("T1")); });

  FetcherConfig cfg;
  cfg.attempts_per_tag = 32;
  cfg.max_backoff = 16;
  auto f = fetcher(*c, cfg);
  std::optional<FetchResult> got;
  f->fetch_verified({"T1"}, [&](const FetchResult& r) { got = r; });
  timeline_.advance_to(5000);

  ASSERT_TRUE(got.has_value());
  EXPECT_GE(got->completed_at, 70);
  EXPECT_GT(got->stats.timeouts, 0u);  // the crash window cost polls
}

TEST_F(FetcherTest, DeterministicPerSeed) {
  auto run = [&](const char* net_seed) {
    server::Timeline timeline(0);
    Network net(timeline, to_bytes(net_seed));
    FaultPlan plan(to_bytes("det-plan"));
    net.set_fault_plan(&plan);
    MirroredArchive c(params_, net, timeline, 2,
                      LinkSpec{.base_delay = 1, .jitter = 2});
    plan.set_byzantine(c.mirror_node(0), ByzantineMode::kGarbage);
    c.publish(update("T1"));
    NodeId rx = net.add_node("rx");
    SimnetSource src(c, rx, LinkSpec{.base_delay = 1, .loss = 0.3});
    UpdateFetcher f(scheme_, server_.pub, src, timeline, {0, 1},
                    to_bytes("det-jitter"), {});
    std::int64_t done_at = -1;
    timeline.schedule(2, [&] {
      f.fetch_verified({"T1"}, [&](const FetchResult& r) { done_at = r.completed_at; });
    });
    timeline.advance_to(5000);
    return done_at;
  };
  std::int64_t first = run("det-net");
  EXPECT_EQ(first, run("det-net"));
  EXPECT_GE(first, 0);
}

TEST_F(FetcherTest, ValidatesConfigurationAndUsage) {
  auto c = cluster(2);
  auto f = fetcher(*c);
  EXPECT_THROW(f->fetch_verified({}, [](const FetchResult&) {}), Error);
  EXPECT_THROW(f->fetch_verified({"T"}, nullptr), Error);
  f->fetch_verified({"T"}, [](const FetchResult&) {});
  EXPECT_TRUE(f->busy());
  EXPECT_THROW(f->fetch_verified({"T"}, [](const FetchResult&) {}), Error);

  SimnetSource& src = source(*c);
  EXPECT_THROW(UpdateFetcher(scheme_, server_.pub, src, timeline_, {},
                             to_bytes("s"), {}),
               Error);
  // Slot 2 is out of range for a 2-mirror source; kOrigin is in range
  // because the simnet adapter HAS an origin.
  EXPECT_THROW(UpdateFetcher(scheme_, server_.pub, src, timeline_, {0, 2},
                             to_bytes("s"), {}),
               Error);
  UpdateFetcher origin_ok(scheme_, server_.pub, src, timeline_,
                          {0, UpdateSource::kOrigin}, to_bytes("s"), {});
  EXPECT_FALSE(origin_ok.busy());
  FetcherConfig bad;
  bad.base_backoff = 0;
  EXPECT_THROW(UpdateFetcher(scheme_, server_.pub, src, timeline_, {0},
                             to_bytes("s"), bad),
               Error);
}

// Satellite of the transport redesign: per-mirror backoff state survives
// fetch() boundaries. A mirror that kept failing through fetch #1 starts
// fetch #2 still penalized; a verified success resets only that mirror.
TEST_F(FetcherTest, BackoffStatePersistsAcrossFetches) {
  auto c = cluster(1);
  plan_.set_byzantine(c->mirror_node(0), ByzantineMode::kDrop);
  c->publish(update("T1"));
  timeline_.advance_to(2);

  FetcherConfig cfg;
  cfg.base_backoff = 1;
  cfg.max_backoff = 64;
  cfg.attempts_per_tag = 8;
  auto f = fetcher(*c, cfg);
  EXPECT_EQ(f->backoff_hint(0), cfg.base_backoff);

  bool failed = false;
  f->fetch_verified({"T1"}, [](const FetchResult&) {},
                    [&](const FetchStats&) { failed = true; });
  timeline_.advance_to(5000);
  ASSERT_TRUE(failed);
  const std::int64_t penalty = f->backoff_hint(0);
  EXPECT_GT(penalty, cfg.base_backoff);  // dropping cost the mirror its standing

  // Fetch #2 starts from the penalty, not from a fresh base_backoff: the
  // very first retry sleep already jitters within [base, penalty*3].
  f->fetch_verified({"T1"}, [](const FetchResult&) {},
                    [&](const FetchStats&) {});
  timeline_.advance_to(10000);
  EXPECT_GE(f->backoff_hint(0), cfg.base_backoff);

  // Mirror heals: a verified success is the only thing that resets it.
  plan_.set_byzantine(c->mirror_node(0), ByzantineMode::kHonest);
  c->publish(update("T1"));  // replica missed replication while dropping
  std::optional<FetchResult> got;
  f->fetch_verified({"T1"}, [&](const FetchResult& r) { got = r; });
  timeline_.advance_to(20000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(f->backoff_hint(0), cfg.base_backoff);
}

// --- The trust gate, on both backends ----------------------------------------
//
// The three entry points share one gate: parse, tag check, pairing or RLC
// check, then one verdict on the slot. These tests pin that each entry
// point counts a reject once, demotes on failure and promotes — resetting
// backoff — on a verified reply, over a scripted source.

template <class B>
struct Glue;

template <>
struct Glue<core::Tre512Backend> {
  static std::shared_ptr<const params::GdhParams> params() {
    return params::load("tre-toy-96");
  }
};

template <>
struct Glue<bls12::Bls381Backend> {
  static std::shared_ptr<const bls12::Bls12Ctx> params() {
    return bls12::Bls12Ctx::get();
  }
};

// Every facility answers synchronously from what the test scripted.
class ScriptedSource final : public UpdateSource {
 public:
  size_t mirror_count() const override { return 3; }
  void request(size_t, const std::string&,
               std::function<void(Bytes)> on_reply) override {
    if (reply) on_reply(*reply);  // nullopt: the mirror stays silent
  }
  std::optional<RangePage> request_range(size_t, std::uint64_t start,
                                         std::uint32_t max_count) override {
    ++range_requests;
    return range ? range(start, max_count) : std::nullopt;
  }
  std::optional<Bytes> request_partial(size_t idx, const std::string&) override {
    return partials[idx];
  }

  std::optional<Bytes> reply;
  std::function<std::optional<RangePage>(std::uint64_t, std::uint32_t)> range;
  std::optional<Bytes> partials[3];
  size_t range_requests = 0;
};

template <class B>
class FetcherGateTest : public ::testing::Test {
 protected:
  FetcherGateTest()
      : params_(Glue<B>::params()),
        scheme_(params_),
        tscheme_(params_),
        rng_(to_bytes("gate-rng")),
        server_(scheme_.server_keygen(rng_)) {}

  BasicUpdateFetcher<B> fetcher(std::vector<size_t> mirrors = {0, 1, 2},
                                size_t attempts = 1) {
    FetcherConfig cfg;
    cfg.attempts_per_tag = attempts;
    return BasicUpdateFetcher<B>(scheme_, server_.pub, source_, timeline_,
                                 std::move(mirrors), to_bytes("gate-jitter"), cfg);
  }

  Bytes update(const std::string& tag) {
    return scheme_.issue_update(server_, tag).to_bytes();
  }

  // A page that answers the request honestly, holding `items`.
  void serve_page(std::vector<Bytes> items, std::uint64_t total) {
    source_.range = [items, total](std::uint64_t start, std::uint32_t) {
      return std::optional<RangePage>(RangePage{total, start, items});
    };
  }

  // A whole archive, paged the way tred pages it: the request's start
  // echoed, at most max_count items.
  void serve_archive(std::vector<Bytes> archive) {
    source_.range = [archive](std::uint64_t start, std::uint32_t max_count) {
      RangePage page{archive.size(), start, {}};
      for (std::uint64_t i = start; i < archive.size() && page.updates.size() < max_count;
           ++i) {
        page.updates.push_back(archive[i]);
      }
      return std::optional<RangePage>(page);
    };
  }

  // Runs one fetch_verified of `tag` to its end, returning its stats.
  // The last reply deadline fires too (a no-op once settled), so no
  // event of `f` outlives it on the shared timeline.
  FetchStats run_fetch(BasicUpdateFetcher<B>& f, const std::string& tag,
                       bool* accepted = nullptr) {
    FetchStats stats;
    f.fetch_verified(
        {tag},
        [&](const BasicFetchResult<B>& r) {
          stats = r.stats;
          if (accepted) *accepted = true;
        },
        [&](const FetchStats& s) { stats = s; });
    while (f.busy()) timeline_.advance_by(1);
    timeline_.advance_by(FetcherConfig{}.reply_timeout);
    return stats;
  }

  // Silent replies until slot 0's backoff seed rises above base.
  void penalize(BasicUpdateFetcher<B>& f) {
    source_.reply.reset();
    for (int i = 0; i < 16 && f.backoff_hint(0) == FetcherConfig{}.base_backoff; ++i) {
      run_fetch(f, "absent");
    }
    ASSERT_GT(f.backoff_hint(0), FetcherConfig{}.base_backoff);
  }

  static std::uint64_t parse_rejects() {
    return obs::Registry::global().counter_value("client.rejected.parse");
  }

  std::shared_ptr<const typename B::Params> params_;
  core::BasicTreScheme<B> scheme_;
  threshold::BasicThresholdScheme<B> tscheme_;
  hashing::HmacDrbg rng_;
  core::BasicServerKeyPair<B> server_;
  server::Timeline timeline_{0};
  ScriptedSource source_;
};

using Backends = ::testing::Types<core::Tre512Backend, bls12::Bls381Backend>;
TYPED_TEST_SUITE(FetcherGateTest, Backends);

TYPED_TEST(FetcherGateTest, GarbageReplyIsOneParseRejectAndDemotes) {
  using B = TypeParam;
  const Bytes garbage = to_bytes("garbage, not an update");

  {  // fetch_verified
    BasicUpdateFetcher<B> f = this->fetcher();
    this->source_.reply = garbage;
    const std::uint64_t before = this->parse_rejects();
    FetchStats stats = this->run_fetch(f, "T1");
    EXPECT_EQ(this->parse_rejects() - before, 1u);
    EXPECT_EQ(stats.rejected_parse, 1u);
    EXPECT_EQ(stats.total_rejected(), 1u);
    EXPECT_EQ(f.health(0), -1);
  }
  {  // fetch_range_verified
    BasicUpdateFetcher<B> f = this->fetcher();
    this->serve_page({garbage}, 1);
    const std::uint64_t before = this->parse_rejects();
    auto page = f.fetch_range_verified(0, 0, 16);
    ASSERT_TRUE(page.has_value());
    EXPECT_EQ(this->parse_rejects() - before, 1u);
    EXPECT_EQ(page->rejected_parse, 1u);
    EXPECT_EQ(page->total_rejected(), 1u);
    EXPECT_TRUE(page->updates.empty());
    EXPECT_EQ(f.health(0), -1);
  }
  {  // fetch_threshold
    BasicUpdateFetcher<B> f = this->fetcher();
    auto [key, shares] = this->tscheme_.setup(threshold::ThresholdConfig{3, 2}, this->rng_);
    this->source_.partials[0] = garbage;
    for (size_t i = 1; i < 3; ++i) {
      this->source_.partials[i] = this->tscheme_.issue_partial(shares[i], "T1").to_bytes();
    }
    const std::uint64_t before = this->parse_rejects();
    auto res = f.fetch_threshold(this->tscheme_, key, "T1");
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(this->parse_rejects() - before, 1u);
    EXPECT_EQ(res->rejected_parse, 1u);
    EXPECT_EQ(res->total_rejected(), 1u);
    EXPECT_EQ(f.health(0), -1);
  }
}

// A page must answer the request it was asked: one that starts elsewhere
// or holds more than max_count items is a failed round trip, like no page
// at all, and each demotes the slot.
TYPED_TEST(FetcherGateTest, RangePageMustAnswerTheRequest) {
  using B = TypeParam;
  BasicUpdateFetcher<B> f = this->fetcher();
  const Bytes u = this->update("T1");

  this->source_.range = nullptr;  // no page at all
  EXPECT_FALSE(f.fetch_range_verified(0, 0, 4).has_value());
  EXPECT_EQ(f.health(0), -1);

  this->source_.range = [u](std::uint64_t start, std::uint32_t) {
    return std::optional<RangePage>(RangePage{100, start + 7, {u}});
  };
  EXPECT_FALSE(f.fetch_range_verified(0, 0, 4).has_value());
  EXPECT_EQ(f.health(0), -2);

  this->source_.range = [u](std::uint64_t start, std::uint32_t max_count) {
    return std::optional<RangePage>(
        RangePage{100, start, std::vector<Bytes>(max_count + 1, u)});
  };
  EXPECT_FALSE(f.fetch_range_verified(0, 0, 4).has_value());
  EXPECT_EQ(f.health(0), -3);

  // The same items, asked for honestly, pass.
  this->serve_page({u}, 100);
  auto page = f.fetch_range_verified(0, 0, 4);
  ASSERT_TRUE(page.has_value());
  EXPECT_EQ(page->updates.size(), 1u);
  EXPECT_EQ(f.health(0), -2);
}

TYPED_TEST(FetcherGateTest, VerifiedRepliesPromoteAndResetBackoff) {
  using B = TypeParam;
  const std::int64_t base = FetcherConfig{}.base_backoff;
  {  // fetch_verified: a verified update
    BasicUpdateFetcher<B> f = this->fetcher({0});
    this->penalize(f);
    const int health = f.health(0);
    this->source_.reply = this->update("T1");
    bool accepted = false;
    this->run_fetch(f, "T1", &accepted);
    EXPECT_TRUE(accepted);
    EXPECT_EQ(f.health(0), health + 1);
    EXPECT_EQ(f.backoff_hint(0), base);
  }
  {  // fetch_range_verified: a clean page
    BasicUpdateFetcher<B> f = this->fetcher({0});
    this->penalize(f);
    const int health = f.health(0);
    this->serve_page({this->update("T1"), this->update("T2")}, 2);
    auto page = f.fetch_range_verified(0, 0, 16);
    ASSERT_TRUE(page.has_value());
    EXPECT_EQ(page->updates.size(), 2u);
    EXPECT_EQ(f.health(0), health + 1);
    EXPECT_EQ(f.backoff_hint(0), base);
  }
  {  // fetch_threshold: a verified partial
    BasicUpdateFetcher<B> f = this->fetcher();
    this->penalize(f);
    const int health = f.health(0);
    auto [key, shares] = this->tscheme_.setup(threshold::ThresholdConfig{3, 2}, this->rng_);
    // Slot 1 is silent, so the quorum needs slot 0's partial.
    this->source_.partials[0] = this->tscheme_.issue_partial(shares[0], "T1").to_bytes();
    this->source_.partials[1].reset();
    this->source_.partials[2] = this->tscheme_.issue_partial(shares[2], "T1").to_bytes();
    auto res = f.fetch_threshold(this->tscheme_, key, "T1");
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(f.health(0), health + 1);
    EXPECT_EQ(f.backoff_hint(0), base);
  }
}

// FetchStats belongs to one fetch_verified call: a forged range page and a
// threshold reject taken while it is in flight stay in their own results.
TYPED_TEST(FetcherGateTest, OtherEntryPointsStayOutOfFetchStats) {
  using B = TypeParam;
  BasicUpdateFetcher<B> f = this->fetcher({0, 1, 2}, /*attempts=*/2);
  std::optional<BasicFetchResult<B>> got;
  this->source_.reply.reset();  // the first attempt goes unanswered
  f.fetch_verified({"T1"}, [&](const BasicFetchResult<B>& r) { got = r; });
  ASSERT_TRUE(f.busy());

  core::BasicKeyUpdate<B> relabeled{"T-relabeled",
                                    this->scheme_.issue_update(this->server_, "T1").sig};
  this->serve_page({relabeled.to_bytes()}, 1);
  auto page = f.fetch_range_verified(1, 0, 16);
  ASSERT_TRUE(page.has_value());
  EXPECT_EQ(page->rejected_sig, 1u);

  auto [key, shares] = this->tscheme_.setup(threshold::ThresholdConfig{3, 2}, this->rng_);
  for (auto& partial : this->source_.partials) partial = to_bytes("garbage");
  EXPECT_FALSE(f.fetch_threshold(this->tscheme_, key, "T1").ok());

  this->source_.reply = this->update("T1");
  while (f.busy()) this->timeline_.advance_by(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->stats.attempts, 2u);
  EXPECT_EQ(got->stats.timeouts, 1u);
  EXPECT_EQ(got->stats.total_rejected(), 0u);
}

TYPED_TEST(FetcherGateTest, ArchiveScanPagesAnHonestArchive) {
  using B = TypeParam;
  BasicUpdateFetcher<B> f = this->fetcher();
  std::vector<Bytes> archive;
  for (int i = 0; i < 5; ++i) {
    archive.push_back(this->update(std::string("T").append(std::to_string(i))));
  }
  this->serve_archive(archive);
  BasicArchiveFetchResult<B> scan = f.fetch_archive_verified(2);
  EXPECT_TRUE(scan.complete);
  EXPECT_EQ(scan.total_rejected(), 0u);
  ASSERT_EQ(scan.updates.size(), 5u);
  for (size_t i = 0; i < archive.size(); ++i) {
    EXPECT_EQ(scan.updates[i].to_bytes(), archive[i]);
  }
  EXPECT_EQ(this->source_.range_requests, 3u);
}

// A mirror that claims an endless archive and replays one valid update
// cannot keep catch-up paging: the second page adds no new tag, so the
// scan of that mirror ends incomplete, and one such page is all the
// liar gets to serve. The replay page verifies, but it demotes the slot
// again: each mirror keeps only the first page's promotion.
TYPED_TEST(FetcherGateTest, ArchiveScanEndsOnAReplayingMirror) {
  using B = TypeParam;
  BasicUpdateFetcher<B> f = this->fetcher();
  const Bytes u = this->update("T1");
  this->source_.range = [u](std::uint64_t start, std::uint32_t max_count) {
    return std::optional<RangePage>(RangePage{
        std::numeric_limits<std::uint64_t>::max(), start,
        std::vector<Bytes>(max_count, u)});
  };
  BasicArchiveFetchResult<B> scan = f.fetch_archive_verified(8);
  EXPECT_FALSE(scan.complete);
  ASSERT_EQ(scan.updates.size(), 1u);  // the replayed tag, once
  EXPECT_EQ(scan.updates[0].to_bytes(), u);
  EXPECT_EQ(this->source_.range_requests, 2u * 3u);  // two pages per mirror
  for (size_t slot = 0; slot < 3; ++slot) EXPECT_EQ(f.health(slot), 1);
}

// The same liar, also moving `start` and overfilling its pages: every
// page fails the gate, so no mirror gets past its first page.
TYPED_TEST(FetcherGateTest, ArchiveScanRefusesPagesThatMissTheRequest) {
  using B = TypeParam;
  BasicUpdateFetcher<B> f = this->fetcher();
  const Bytes u = this->update("T1");
  this->source_.range = [u](std::uint64_t start, std::uint32_t max_count) {
    return std::optional<RangePage>(RangePage{
        std::numeric_limits<std::uint64_t>::max(), start + 7,
        std::vector<Bytes>(2 * static_cast<size_t>(max_count), u)});
  };
  BasicArchiveFetchResult<B> scan = f.fetch_archive_verified(8);
  EXPECT_FALSE(scan.complete);
  EXPECT_TRUE(scan.updates.empty());
  EXPECT_EQ(this->source_.range_requests, 3u);  // one page per mirror
  for (size_t slot = 0; slot < 3; ++slot) EXPECT_EQ(f.health(slot), -1);
}

}  // namespace
}  // namespace tre::client
