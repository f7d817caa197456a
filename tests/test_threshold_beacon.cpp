// The backend-generic threshold beacon pipeline, end to end: joint-
// Feldman DKG (happy path, justified complaints, disqualification,
// abort), RLC batch verification with exact Byzantine attribution,
// typed-error combination, the golden property that a t-of-n aggregate
// is BYTE-identical to the update a single server holding s would have
// issued, quorum collection over a hostile simnet, beacon-node mode on
// the time server, the threshold wire codecs, and the tlock-style round
// addressing. Everything generic runs on BOTH backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "bls12/tre381.h"
#include "client/fetcher.h"
#include "client/simnet_source.h"
#include "core/tre.h"
#include "hashing/drbg.h"
#include "obs/metrics.h"
#include "threshold/dkg.h"
#include "threshold/threshold.h"
#include "timeserver/round.h"
#include "timeserver/timeserver.h"

namespace tre::threshold {
namespace {

constexpr const char* kTag = "2030-01-01T00:00:00Z";

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

template <class B>
class ThresholdBeaconTest : public ::testing::Test {
 protected:
  ThresholdBeaconTest()
      : params_(Glue<B>::params()),
        tscheme_(params_),
        rng_(to_bytes("beacon-tests")) {}

  std::vector<BasicPartialUpdate<B>> partials_from(
      const BasicThresholdKey<B>&,
      const std::vector<BasicServerShare<B>>& shares,
      std::initializer_list<size_t> indices, std::string_view tag = kTag) {
    std::vector<BasicPartialUpdate<B>> out;
    for (size_t i : indices) {
      out.push_back(tscheme_.issue_partial(shares[i - 1], tag));
    }
    return out;
  }

  std::shared_ptr<const typename B::Params> params_;
  BasicThresholdScheme<B> tscheme_;
  hashing::HmacDrbg rng_;
};

using Backends = ::testing::Types<core::Tre512Backend, bls12::Bls381Backend>;
TYPED_TEST_SUITE(ThresholdBeaconTest, Backends);

// --- DKG ---------------------------------------------------------------------

TYPED_TEST(ThresholdBeaconTest, DkgProducesWorkingBeacon) {
  using B = TypeParam;
  auto res = run_dkg<B>(this->params_, ThresholdConfig{5, 3}, this->rng_);
  ASSERT_TRUE(res.ok());
  const DkgResult<B>& dkg = *res;

  // No faults: every dealer qualifies, nobody is convicted.
  EXPECT_EQ(dkg.qualified, (std::vector<size_t>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(dkg.complaints.empty());
  ASSERT_EQ(dkg.shares.size(), 5u);

  // Each node's share matches its public commitment: partials verify.
  for (const BasicServerShare<B>& share : dkg.shares) {
    BasicPartialUpdate<B> pu = this->tscheme_.issue_partial(share, kTag);
    EXPECT_TRUE(this->tscheme_.verify_partial(dkg.key, pu)) << share.index;
  }

  // Any quorum combines into an update the GROUP key accepts, and all
  // quorums agree on the same point.
  auto q1 = this->partials_from(dkg.key, dkg.shares, {1, 2, 3});
  auto q2 = this->partials_from(dkg.key, dkg.shares, {5, 2, 4});
  core::BasicKeyUpdate<B> u1 = this->tscheme_.combine(dkg.key, q1);
  core::BasicKeyUpdate<B> u2 = this->tscheme_.combine(dkg.key, q2);
  EXPECT_TRUE(this->tscheme_.scheme().verify_update(dkg.key.group, u1));
  EXPECT_TRUE(B::gu_eq(u1.sig, u2.sig));
}

// The load-bearing interop property: the aggregate of ANY k partials is
// byte-identical to the update a single server holding the recovered
// master secret would have issued, so every consumer of ordinary updates
// (encryption, archives, non-threshold-aware fetchers) works unchanged.
TYPED_TEST(ThresholdBeaconTest, AggregateBitIdenticalToSingleServer) {
  using B = TypeParam;
  auto res = run_dkg<B>(this->params_, ThresholdConfig{5, 3}, this->rng_);
  ASSERT_TRUE(res.ok());
  const DkgResult<B>& dkg = *res;

  core::BasicServerKeyPair<B> single{
      this->tscheme_.recover_secret(dkg.key, dkg.shares), dkg.key.group};
  core::BasicKeyUpdate<B> want =
      this->tscheme_.scheme().issue_update(single, kTag);

  for (auto quorum : {std::initializer_list<size_t>{1, 2, 3},
                      std::initializer_list<size_t>{2, 4, 5},
                      std::initializer_list<size_t>{5, 3, 1}}) {
    auto partials = this->partials_from(dkg.key, dkg.shares, quorum);
    core::BasicKeyUpdate<B> got = this->tscheme_.combine(dkg.key, partials);
    EXPECT_EQ(got.to_bytes(), want.to_bytes());
  }
}

// Dealer setup and DKG emit interchangeable types: a dealer-set-up
// beacon passes the exact same pipeline.
TYPED_TEST(ThresholdBeaconTest, DealerSetupAggregateBitIdentical) {
  using B = TypeParam;
  auto [key, shares] = this->tscheme_.setup(ThresholdConfig{4, 2}, this->rng_);
  core::BasicServerKeyPair<B> single{
      this->tscheme_.recover_secret(key, shares), key.group};
  core::BasicKeyUpdate<B> want =
      this->tscheme_.scheme().issue_update(single, kTag);
  auto partials = this->partials_from(key, shares, {4, 1});
  EXPECT_EQ(this->tscheme_.combine(key, partials).to_bytes(), want.to_bytes());
}

// A deal corrupted in transit draws a complaint, but the dealer's honest
// public justification clears it: nobody is disqualified and the cleared
// deal is adopted by the accuser.
TYPED_TEST(ThresholdBeaconTest, DkgTransitCorruptionIsJustifiedAway) {
  using B = TypeParam;
  size_t tampered_sends = 0;
  DkgTamper transit_only = [&](size_t dealer, size_t recipient,
                               bool justification, core::Scalar& value) {
    if (dealer == 2 && recipient == 4 && !justification) {
      ++tampered_sends;
      value = bigint::add(value, core::Scalar::from_u64(1));
    }
  };
  auto res =
      run_dkg<B>(this->params_, ThresholdConfig{5, 3}, this->rng_, transit_only);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(tampered_sends, 1u);
  EXPECT_EQ(res->qualified, (std::vector<size_t>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(res->complaints.empty());

  // The run still yields a coherent beacon including the accused dealer.
  auto partials = this->partials_from(res->key, res->shares, {2, 4, 5});
  EXPECT_TRUE(this->tscheme_.scheme().verify_update(
      res->key.group, this->tscheme_.combine(res->key, partials)));
}

// A Byzantine dealer corrupts the justification too: it is disqualified,
// the complaint is upheld and attributed, and the surviving dealers
// still produce a working beacon.
TYPED_TEST(ThresholdBeaconTest, DkgByzantineDealerDisqualified) {
  using B = TypeParam;
  DkgTamper byzantine = [](size_t dealer, size_t recipient, bool,
                           core::Scalar& value) {
    if (dealer == 3 && recipient == 1) {
      value = bigint::add(value, core::Scalar::from_u64(7));
    }
  };
  auto res =
      run_dkg<B>(this->params_, ThresholdConfig{5, 3}, this->rng_, byzantine);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->qualified, (std::vector<size_t>{1, 2, 4, 5}));
  ASSERT_EQ(res->complaints.size(), 1u);
  EXPECT_EQ(res->complaints[0].dealer, 3u);
  EXPECT_EQ(res->complaints[0].accuser, 1u);

  auto partials = this->partials_from(res->key, res->shares, {1, 3, 5});
  core::BasicKeyUpdate<B> update = this->tscheme_.combine(res->key, partials);
  EXPECT_TRUE(this->tscheme_.scheme().verify_update(res->key.group, update));
}

// Fewer qualified dealers than the reconstruction threshold aborts with
// the typed complaint error — the run cannot guarantee an unbiased s.
TYPED_TEST(ThresholdBeaconTest, DkgAbortsWhenQualifiedBelowThreshold) {
  using B = TypeParam;
  DkgTamper kill_dealer_1 = [](size_t dealer, size_t recipient, bool,
                               core::Scalar& value) {
    if (dealer == 1 && recipient != 1) {
      value = bigint::add(value, core::Scalar::from_u64(1));
    }
  };
  auto res = run_dkg<B>(this->params_, ThresholdConfig{3, 3}, this->rng_,
                        kill_dealer_1);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error(), Errc::kDkgComplaint);
}

// The DKG takes the dealer's node bound and refuses a larger n before it
// builds a node: a refused run draws no randomness.
TYPED_TEST(ThresholdBeaconTest, DkgRefusesMoreThanMaxNodes) {
  using B = TypeParam;
  struct NoDraws : hashing::RandomSource {
    void fill(std::span<std::uint8_t>) override {
      throw std::logic_error("run_dkg drew randomness before refusing n");
    }
  } rng;
  const size_t n = BasicThresholdScheme<B>::kMaxNodes + 1;
  EXPECT_THROW(run_dkg<B>(this->params_, ThresholdConfig{n, 2}, rng), Error);
}

// --- batch verification and typed-error combination --------------------------

TYPED_TEST(ThresholdBeaconTest, BatchVerifyAttributesExactGuiltySet) {
  auto [key, shares] = this->tscheme_.setup(ThresholdConfig{8, 5}, this->rng_);
  auto partials =
      this->partials_from(key, shares, {1, 2, 3, 4, 5, 6, 7, 8});

  // Forge position 1 (wrong-tag signature relabelled), 4 (index claims a
  // different node's commitment), 6 (stale signature for another tag).
  partials[1].sig = this->tscheme_.issue_partial(shares[1], "other-tag").sig;
  partials[4].index = 3;
  partials[6].sig = this->tscheme_.issue_partial(shares[6], "stale").sig;

  std::vector<size_t> bad =
      this->tscheme_.verify_partials_batch(key, partials, this->rng_);
  EXPECT_EQ(bad, (std::vector<size_t>{1, 4, 6}));
}

TEST(ThresholdBeacon381Test, BatchVerifyAddsNoLinesAfterTheFirstCall) {
  // The RLC fold of the share commitments is a new G2 point on every
  // call, so its Miller lines are prepared uncached: once the group
  // generator's lines are in, batch verification misses no more.
  using B = bls12::Bls381Backend;
  BasicThresholdScheme<B> tscheme(bls12::Bls12Ctx::get());
  hashing::HmacDrbg rng(to_bytes("beacon-lines"));
  auto [key, shares] = tscheme.setup(ThresholdConfig{3, 2}, rng);
  const auto misses = [] {
    return obs::Registry::global().counter_value("core.bls381.pair.lines.miss");
  };
  std::uint64_t after_first = 0;
  const char* tags[] = {"2030-01-01T00:00:00Z", "2030-01-01T00:00:01Z",
                        "2030-01-01T00:00:02Z"};
  for (size_t i = 0; i < 3; ++i) {
    std::vector<BasicPartialUpdate<B>> partials;
    for (const BasicServerShare<B>& share : shares) {
      partials.push_back(tscheme.issue_partial(share, tags[i]));
    }
    EXPECT_TRUE(tscheme.verify_partials_batch(key, partials, rng).empty());
    if (i == 0) {
      after_first = misses();
    } else {
      EXPECT_EQ(misses(), after_first) << tags[i];
    }
  }
}

// --- wire codecs -------------------------------------------------------------

TYPED_TEST(ThresholdBeaconTest, WireCodecsRoundTrip) {
  using B = TypeParam;
  auto [key, shares] = this->tscheme_.setup(ThresholdConfig{4, 2}, this->rng_);
  const typename B::Params& p = *this->params_;

  Bytes kw = key.to_bytes();
  BasicThresholdKey<B> key2 = BasicThresholdKey<B>::from_bytes(p, kw);
  EXPECT_EQ(key2.to_bytes(), kw);
  EXPECT_EQ(key2.config.n, 4u);
  EXPECT_EQ(key2.config.k, 2u);

  Bytes sw = shares[2].to_bytes(p);
  BasicServerShare<B> share2 = BasicServerShare<B>::from_bytes(p, sw);
  EXPECT_EQ(share2.index, 3u);
  EXPECT_EQ(share2.to_bytes(p), sw);
  // The reparsed share still issues partials the key accepts.
  EXPECT_TRUE(this->tscheme_.verify_partial(
      key2, this->tscheme_.issue_partial(share2, kTag)));

  BasicPartialUpdate<B> pu = this->tscheme_.issue_partial(shares[0], kTag);
  Bytes pw = pu.to_bytes();
  EXPECT_EQ(BasicPartialUpdate<B>::from_bytes(p, pw), pu);

  // Truncation and trailing garbage are rejected at the parse boundary.
  for (Bytes* wire : {&kw, &sw, &pw}) {
    Bytes trunc(wire->begin(), wire->end() - 1);
    Bytes trail = *wire;
    trail.push_back(0);
    if (wire == &kw) {
      EXPECT_THROW(BasicThresholdKey<B>::from_bytes(p, trunc), Error);
      EXPECT_THROW(BasicThresholdKey<B>::from_bytes(p, trail), Error);
    } else if (wire == &sw) {
      EXPECT_THROW(BasicServerShare<B>::from_bytes(p, trunc), Error);
      EXPECT_THROW(BasicServerShare<B>::from_bytes(p, trail), Error);
    } else {
      EXPECT_THROW(BasicPartialUpdate<B>::from_bytes(p, trunc), Error);
      EXPECT_THROW(BasicPartialUpdate<B>::from_bytes(p, trail), Error);
      EXPECT_FALSE(wire::try_parse<BasicPartialUpdate<B>>(p, trunc).has_value());
      EXPECT_FALSE(wire::try_parse<BasicPartialUpdate<B>>(p, trail).has_value());
    }
  }
}

// --- quorum collection over a hostile simnet ---------------------------------

// n = 6 beacon nodes, k = 3; one relabelling forger, one crashed-silent
// node, one garbage server. The fetcher must reach quorum from the
// honest remainder, accept ZERO forged partials, convict EXACTLY the
// forger, and hand back an aggregate byte-identical to the
// single-server update.
TYPED_TEST(ThresholdBeaconTest, FetchThresholdSurvivesHostileQuorum) {
  using B = TypeParam;
  server::Timeline timeline(0);
  simnet::Network net(timeline, to_bytes("beacon-net"));
  simnet::FaultPlan plan(to_bytes("beacon-plan"));
  net.set_fault_plan(&plan);

  simnet::BasicMirroredArchive<B> archive(this->params_, net, timeline, 6,
                                          simnet::LinkSpec{.base_delay = 1});
  simnet::NodeId rx = net.add_node("rx");

  auto [key, shares] = this->tscheme_.setup(ThresholdConfig{6, 3}, this->rng_);
  for (size_t i = 0; i < 6; ++i) {
    archive.publish_partial(i, this->tscheme_.issue_partial(shares[i], kTag));
  }
  // The relabeller needs a second tag in store to serve under kTag.
  archive.publish_partial(0, this->tscheme_.issue_partial(shares[0], "decoy"));

  plan.set_byzantine(archive.mirror_node(0), simnet::ByzantineMode::kRelabel);
  plan.set_byzantine(archive.mirror_node(2), simnet::ByzantineMode::kGarbage);
  plan.crash_node(archive.mirror_node(1), 0, 1000);

  client::BasicSimnetSource<B> source(archive, rx,
                                      simnet::LinkSpec{.base_delay = 1});
  core::BasicTreScheme<B> scheme(this->params_);
  client::BasicUpdateFetcher<B> fetcher(scheme, key.as_server_public_key(),
                                        source, timeline, {0, 1, 2, 3, 4, 5},
                                        to_bytes("beacon-jitter"));

  auto res = fetcher.fetch_threshold(this->tscheme_, key, kTag);
  ASSERT_TRUE(res.ok());
  const client::BasicThresholdFetchResult<B>& got = *res;

  EXPECT_EQ(got.partials_used, 3u);
  EXPECT_EQ(got.slots_polled, 6u);
  EXPECT_EQ(got.silent, 1u);          // the crashed node
  EXPECT_EQ(got.rejected_parse, 1u);  // garbage fails the parse boundary
  EXPECT_EQ(got.rejected_sig, 1u);    // the relabelled forgery
  EXPECT_EQ(got.byzantine_nodes, (std::vector<size_t>{1}));  // share index

  // Zero forged accepts: the aggregate IS the single-server update.
  core::BasicServerKeyPair<B> single{this->tscheme_.recover_secret(key, shares),
                                     key.group};
  EXPECT_EQ(got.update.to_bytes(),
            scheme.issue_update(single, kTag).to_bytes());

  // The forger was demoted, honest quorum members promoted.
  EXPECT_LT(fetcher.health(0), 0);
  EXPECT_GT(fetcher.health(3), 0);
}

// Too many failures for quorum: typed insufficiency, never a bogus update.
TYPED_TEST(ThresholdBeaconTest, FetchThresholdInsufficientIsTyped) {
  using B = TypeParam;
  server::Timeline timeline(0);
  simnet::Network net(timeline, to_bytes("beacon-net-2"));
  simnet::FaultPlan plan(to_bytes("beacon-plan-2"));
  net.set_fault_plan(&plan);

  simnet::BasicMirroredArchive<B> archive(this->params_, net, timeline, 4,
                                          simnet::LinkSpec{.base_delay = 1});
  simnet::NodeId rx = net.add_node("rx");

  auto [key, shares] = this->tscheme_.setup(ThresholdConfig{4, 3}, this->rng_);
  for (size_t i = 0; i < 4; ++i) {
    archive.publish_partial(i, this->tscheme_.issue_partial(shares[i], kTag));
    if (i < 2) {
      plan.set_byzantine(archive.mirror_node(i), simnet::ByzantineMode::kDrop);
    }
  }

  client::BasicSimnetSource<B> source(archive, rx,
                                      simnet::LinkSpec{.base_delay = 1});
  core::BasicTreScheme<B> scheme(this->params_);
  client::BasicUpdateFetcher<B> fetcher(scheme, key.as_server_public_key(),
                                        source, timeline, {0, 1, 2, 3},
                                        to_bytes("beacon-jitter"));

  auto res = fetcher.fetch_threshold(this->tscheme_, key, kTag);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error(), Errc::kInsufficientPartials);
}

// A forged partial at fetch_threshold's combine step. With 4 partials
// for k = 3 the batch check convicts the forger, drops it, and the
// remaining 3 combine into an update the group key accepts. With 3
// partials only 2 survive: typed insufficiency, and the error is data,
// not an exception.
TYPED_TEST(ThresholdBeaconTest, TryCombineDropsForgeriesOrFailsTyped) {
  using B = TypeParam;
  for (const size_t n : {4u, 3u}) {
    const size_t forged = n == 4 ? 2 : 0;
    server::Timeline timeline(0);
    simnet::Network net(timeline, to_bytes("beacon-net-3"));
    simnet::BasicMirroredArchive<B> archive(this->params_, net, timeline, n,
                                            simnet::LinkSpec{.base_delay = 1});
    simnet::NodeId rx = net.add_node("rx");

    auto [key, shares] = this->tscheme_.setup(ThresholdConfig{n, 3}, this->rng_);
    std::vector<size_t> slots;
    for (size_t i = 0; i < n; ++i) {
      BasicPartialUpdate<B> partial = this->tscheme_.issue_partial(shares[i], kTag);
      if (i == forged) {
        partial.sig = this->tscheme_.issue_partial(shares[i], "forged").sig;
      }
      archive.publish_partial(i, partial);
      slots.push_back(i);
    }

    client::BasicSimnetSource<B> source(archive, rx,
                                        simnet::LinkSpec{.base_delay = 1});
    core::BasicTreScheme<B> scheme(this->params_);
    client::BasicUpdateFetcher<B> fetcher(scheme, key.as_server_public_key(),
                                          source, timeline, slots,
                                          to_bytes("beacon-jitter"));

    auto res = fetcher.fetch_threshold(this->tscheme_, key, kTag);
    if (n == 4) {
      ASSERT_TRUE(res.ok());
      EXPECT_EQ(res->rejected_sig, 1u);
      EXPECT_EQ(res->byzantine_nodes, (std::vector<size_t>{forged + 1}));
      EXPECT_EQ(res->partials_used, 3u);
      EXPECT_TRUE(scheme.verify_update(key.group, res->update));
    } else {
      ASSERT_FALSE(res.ok());
      EXPECT_EQ(res.error(), Errc::kInsufficientPartials);
    }
  }
}

// --- beacon-node mode on the time server -------------------------------------

TYPED_TEST(ThresholdBeaconTest, TimeServerBeaconMode) {
  using B = TypeParam;
  server::Timeline timeline(1000000);
  server::BasicTimeServer<B> ts(this->params_, timeline,
                                server::Granularity::kSecond, this->rng_);
  EXPECT_FALSE(ts.beacon_enabled());

  auto [key, shares] = this->tscheme_.setup(ThresholdConfig{3, 2}, this->rng_);
  ts.enable_beacon(key, shares[1]);
  ASSERT_TRUE(ts.beacon_enabled());
  EXPECT_EQ(ts.beacon_key().to_bytes(), key.to_bytes());

  // Trust assumption 2 binds partials exactly as it binds full updates.
  auto future = ts.try_issue_partial_for(server::TimeSpec::from_unix(
      timeline.now() + 60, server::Granularity::kSecond));
  ASSERT_FALSE(future.ok());
  EXPECT_EQ(future.error(), Errc::kFutureInstant);

  auto now_spec =
      server::TimeSpec::from_unix(timeline.now(), server::Granularity::kSecond);
  auto partial = ts.try_issue_partial_for(now_spec);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->index, 2u);
  EXPECT_TRUE(this->tscheme_.verify_partial(key, *partial));
  EXPECT_EQ(ts.stats().partials_issued, 1u);

  // Two beacon nodes reach quorum; the aggregate passes the ordinary
  // update check the server's own clients run.
  server::BasicTimeServer<B> peer(this->params_, timeline,
                                  server::Granularity::kSecond, this->rng_);
  peer.enable_beacon(key, shares[0]);
  std::vector<BasicPartialUpdate<B>> quorum = {*partial,
                                               peer.issue_partial_for(now_spec)};
  core::BasicKeyUpdate<B> update = this->tscheme_.combine(key, quorum);
  EXPECT_TRUE(this->tscheme_.scheme().verify_update(key.group, update));
}

// --- round addressing (backend-free) -----------------------------------------

TEST(RoundAddressing, TagRoundTripAndRejects) {
  EXPECT_EQ(server::round_tag(1), "round:1");
  EXPECT_EQ(server::round_tag(123456789), "round:123456789");
  EXPECT_EQ(server::parse_round_tag("round:1"), std::optional<std::uint64_t>(1));
  EXPECT_EQ(server::parse_round_tag("round:0"), std::optional<std::uint64_t>(0));
  for (const char* bad :
       {"round:", "round:01", "round:-1", "round:1x", "Round:1", "r:1",
        "round:18446744073709551616" /* 2^64 */, "2030-01-01"}) {
    EXPECT_FALSE(server::parse_round_tag(bad).has_value()) << bad;
  }
  // Canonical both ways across the range.
  for (std::uint64_t r : {std::uint64_t{0}, std::uint64_t{7},
                          std::uint64_t{0xffffffffffffffffULL}}) {
    EXPECT_EQ(server::parse_round_tag(server::round_tag(r)),
              std::optional<std::uint64_t>(r));
  }
}

TEST(RoundAddressing, ChainArithmeticMatchesDrand) {
  server::BeaconChain chain{.genesis_seconds = 1000, .period_seconds = 30};
  EXPECT_EQ(server::round_for(chain, 999), 0u);   // pre-genesis: no round
  EXPECT_EQ(server::round_for(chain, 1000), 1u);  // round 1 AT genesis
  EXPECT_EQ(server::round_for(chain, 1029), 1u);
  EXPECT_EQ(server::round_for(chain, 1030), 2u);
  for (std::uint64_t r : {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{97}}) {
    EXPECT_EQ(server::round_for(chain, server::round_time(chain, r)), r);
  }
}

TEST(RoundAddressing, RoundMessageIsSha256OfBe64) {
  Bytes m1 = server::round_message(1);
  ASSERT_EQ(m1.size(), 32u);
  std::uint8_t be1[8] = {0, 0, 0, 0, 0, 0, 0, 1};
  EXPECT_EQ(m1, hashing::sha256(ByteSpan(be1, 8)));
  EXPECT_NE(server::round_message(2), m1);
}

}  // namespace
}  // namespace tre::threshold
