// Discrete-event network simulation and the mirrored update archive,
// read by receivers through the verify-everything fetch pipeline.
#include "simnet/mirrors.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "client/fetcher.h"
#include "client/simnet_source.h"
#include "hashing/drbg.h"

namespace tre::simnet {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : timeline_(0), net_(timeline_, to_bytes("simnet-tests")) {}

  server::Timeline timeline_;
  Network net_;
};

TEST_F(NetworkTest, DeliversWithLinkDelay) {
  NodeId a = net_.add_node("a");
  NodeId b = net_.add_node("b");
  net_.connect(a, b, LinkSpec{.base_delay = 5});
  std::int64_t arrived_at = -1;
  net_.send(a, b, 100, [&] { arrived_at = timeline_.now(); });
  timeline_.advance_to(4);
  EXPECT_EQ(arrived_at, -1);
  timeline_.advance_to(5);
  EXPECT_EQ(arrived_at, 5);
  EXPECT_EQ(net_.stats().delivered, 1u);
  EXPECT_EQ(net_.stats().bytes_carried, 100u);
  EXPECT_EQ(net_.inbound_count(b), 1u);
  EXPECT_EQ(net_.inbound_count(a), 0u);
}

TEST_F(NetworkTest, JitterStaysInRange) {
  NodeId a = net_.add_node("a");
  NodeId b = net_.add_node("b");
  net_.connect(a, b, LinkSpec{.base_delay = 10, .jitter = 5});
  std::vector<std::int64_t> arrivals;
  for (int i = 0; i < 50; ++i) {
    net_.send(a, b, 1, [&] { arrivals.push_back(timeline_.now()); });
  }
  timeline_.advance_to(100);
  ASSERT_EQ(arrivals.size(), 50u);
  for (auto t : arrivals) {
    EXPECT_GE(t, 10);
    EXPECT_LE(t, 15);
  }
}

TEST_F(NetworkTest, LossDropsSomeMessages) {
  NodeId a = net_.add_node("a");
  NodeId b = net_.add_node("b");
  net_.connect(a, b, LinkSpec{.loss = 0.5});
  int received = 0;
  for (int i = 0; i < 200; ++i) net_.send(a, b, 1, [&] { ++received; });
  timeline_.advance_to(1);
  EXPECT_GT(received, 50);
  EXPECT_LT(received, 150);
  EXPECT_EQ(net_.stats().dropped + net_.stats().delivered, 200u);
}

TEST_F(NetworkTest, NoLinkMeansDrop) {
  NodeId a = net_.add_node("a");
  NodeId b = net_.add_node("b");
  bool delivered = false;
  net_.send(a, b, 1, [&] { delivered = true; });
  timeline_.advance_to(10);
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net_.stats().dropped, 1u);
}

TEST_F(NetworkTest, ValidatesInputs) {
  NodeId a = net_.add_node("a");
  EXPECT_THROW(net_.connect(a, a, LinkSpec{}), Error);
  EXPECT_THROW(net_.connect(a, 99, LinkSpec{}), Error);
  EXPECT_THROW(net_.send(a, 99, 1, [] {}), Error);
  EXPECT_THROW(net_.connect(a, a, LinkSpec{.loss = 1.5}), Error);
  EXPECT_EQ(net_.name_of(a), "a");
}

// --- MirroredArchive ------------------------------------------------------------

class MirrorTest : public ::testing::Test {
 protected:
  MirrorTest()
      : timeline_(0),
        net_(timeline_, to_bytes("mirror-tests")),
        params_(params::load("tre-toy-96")),
        scheme_(params_),
        rng_(to_bytes("mirror-rng")),
        server_(scheme_.server_keygen(rng_)) {}

  core::KeyUpdate update(const char* tag) { return scheme_.issue_update(server_, tag); }

  // A receiver on its own node (1 s access link), fetching `mirrors` of
  // `cluster` through the verify-everything pipeline under `key`.
  client::UpdateFetcher& fetcher(MirroredArchive& cluster, std::vector<size_t> mirrors,
                                 client::FetcherConfig cfg,
                                 const core::ServerPublicKey& key) {
    NodeId rx = net_.add_node("rx-" + std::to_string(sources_.size()));
    sources_.push_back(std::make_unique<client::SimnetSource>(
        cluster, rx, LinkSpec{.base_delay = 1}));
    fetchers_.push_back(std::make_unique<client::UpdateFetcher>(
        scheme_, key, *sources_.back(), timeline_, std::move(mirrors),
        to_bytes("mirror-jitter"), cfg));
    return *fetchers_.back();
  }
  client::UpdateFetcher& fetcher(MirroredArchive& cluster, std::vector<size_t> mirrors,
                                 client::FetcherConfig cfg = {}) {
    return fetcher(cluster, std::move(mirrors), cfg, server_.pub);
  }

  static client::FetcherConfig budget(size_t attempts) {
    client::FetcherConfig cfg;
    cfg.attempts_per_tag = attempts;
    return cfg;
  }

  server::Timeline timeline_;
  Network net_;
  std::shared_ptr<const params::GdhParams> params_;
  core::TreScheme scheme_;
  hashing::HmacDrbg rng_;
  core::ServerKeyPair server_;
  // Sources outlive the fetchers that read them (destroyed in reverse).
  std::vector<std::unique_ptr<client::SimnetSource>> sources_;
  std::vector<std::unique_ptr<client::UpdateFetcher>> fetchers_;
};

TEST_F(MirrorTest, ReplicationReachesAllMirrors) {
  MirroredArchive cluster(params_, net_, timeline_, 3, LinkSpec{.base_delay = 2});
  cluster.publish(update("T1"));
  EXPECT_EQ(cluster.stats().replication_messages, 3u);

  // A receiver polling a mirror BEFORE replication lands needs a retry.
  client::FetcherConfig cfg;
  cfg.reply_timeout = 3;               // > the 2 s round trip
  cfg.max_backoff = cfg.base_backoff;  // a fixed 1 s retry sleep
  std::int64_t got_at = -1;
  fetcher(cluster, {1}, cfg).fetch_verified({"T1"}, [&](const client::FetchResult& r) {
    got_at = r.completed_at;
    EXPECT_EQ(r.update, update("T1"));
  });
  timeline_.advance_to(60);
  // Poll 1 arrives at t=1 (mirror still empty; the replica lands at
  // t=2) and goes unanswered; its deadline fires at t=3, the retry
  // leaves at t=4, reaches the mirror at t=5 and the reply arrives at t=6.
  EXPECT_EQ(got_at, 6);
  EXPECT_EQ(cluster.stats().mirror_requests, 2u);
  EXPECT_EQ(cluster.stats().origin_requests, 0u);
}

TEST_F(MirrorTest, OriginServesDirectly) {
  MirroredArchive cluster(params_, net_, timeline_, 2, LinkSpec{.base_delay = 10});
  cluster.publish(update("T1"));
  bool got = false;
  fetcher(cluster, {client::UpdateSource::kOrigin})
      .fetch_verified({"T1"}, [&](const client::FetchResult&) { got = true; });
  timeline_.advance_to(10);
  EXPECT_TRUE(got);
  EXPECT_EQ(cluster.stats().origin_requests, 1u);
}

TEST_F(MirrorTest, FetchTimesOutWhenUpdateNeverAppears) {
  MirroredArchive cluster(params_, net_, timeline_, 1, LinkSpec{});
  bool got = false;
  std::optional<client::FetchStats> failure;
  fetcher(cluster, {0}, budget(3))
      .fetch_verified({"never-published"}, [&](const client::FetchResult&) { got = true; },
                      [&](const client::FetchStats& s) { failure = s; });
  timeline_.advance_to(1000);
  EXPECT_FALSE(got);
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->attempts, 3u);
  EXPECT_EQ(failure->timeouts, 3u);
  EXPECT_EQ(cluster.stats().mirror_requests, 3u);
}

TEST_F(MirrorTest, ManyReceiversOffloadTheOrigin) {
  MirroredArchive cluster(params_, net_, timeline_, 4, LinkSpec{.base_delay = 1});
  cluster.publish(update("T1"));
  timeline_.advance_to(2);  // replication done
  int got = 0;
  for (size_t i = 0; i < 40; ++i) {
    // Reply deadline > round-trip time, so a present update costs one poll.
    fetcher(cluster, {i % 4})
        .fetch_verified({"T1"}, [&](const client::FetchResult&) { ++got; });
  }
  timeline_.advance_to(30);
  EXPECT_EQ(got, 40);
  EXPECT_EQ(cluster.stats().origin_requests, 0u);  // fully offloaded
  EXPECT_EQ(cluster.stats().mirror_requests, 40u);
  EXPECT_EQ(net_.inbound_count(cluster.origin()), 0u);
}

// Unanswered polls back off with decorrelated jitter: each retry sleep is
// drawn from [base, 3 x the previous sleep], capped at max_backoff, so
// the bound on the gap between polls grows geometrically to the cap.
TEST_F(MirrorTest, PollingBacksOffExponentially) {
  MirroredArchive cluster(params_, net_, timeline_, 1, LinkSpec{});
  client::FetcherConfig cfg = budget(6);
  cfg.reply_timeout = 2;
  cfg.base_backoff = 2;
  cfg.max_backoff = 16;
  client::UpdateFetcher& f = fetcher(cluster, {0}, cfg);
  f.fetch_verified({"absent"}, [](const client::FetchResult&) { FAIL(); },
                   [](const client::FetchStats&) {});
  std::vector<std::int64_t> polls;
  for (std::int64_t t = 0; t <= 500; ++t) {
    timeline_.advance_to(t);
    while (polls.size() < cluster.stats().mirror_requests) polls.push_back(t);
  }
  ASSERT_EQ(polls.size(), 6u);
  EXPECT_EQ(polls[0], 0);
  std::int64_t prev = cfg.base_backoff;
  std::int64_t longest = 0;
  for (size_t i = 1; i < polls.size(); ++i) {
    const std::int64_t sleep = polls[i] - polls[i - 1] - cfg.reply_timeout;
    EXPECT_GE(sleep, cfg.base_backoff) << "poll " << i;
    EXPECT_LE(sleep, std::min(cfg.max_backoff, 3 * prev)) << "poll " << i;
    prev = sleep;
    longest = std::max(longest, sleep);
  }
  // The bound is not all that grows: with this seed the sleeps reach past
  // 3 x base, which no run pinned at base_backoff could.
  EXPECT_GT(longest, 3 * cfg.base_backoff);
  EXPECT_FALSE(f.busy());
}

TEST_F(MirrorTest, GarbageReplyCountsAsFailedPoll) {
  FaultPlan plan(to_bytes("garbage-mirror"));
  net_.set_fault_plan(&plan);
  MirroredArchive cluster(params_, net_, timeline_, 1, LinkSpec{.base_delay = 1});
  plan.set_byzantine(cluster.mirror_node(0), ByzantineMode::kGarbage);
  cluster.publish(update("T1"));
  timeline_.advance_to(2);  // replication done

  bool got = false;
  std::optional<client::FetchStats> failure;
  fetcher(cluster, {0}, budget(3))
      .fetch_verified({"T1"}, [&](const client::FetchResult&) { got = true; },
                      [&](const client::FetchStats& s) { failure = s; });
  timeline_.advance_to(1000);
  // Every reply was garbage: each poll failed at the parse stage and
  // nothing was accepted.
  EXPECT_FALSE(got);
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->attempts, 3u);
  EXPECT_EQ(failure->rejected_parse, 3u);
  EXPECT_EQ(failure->timeouts, 0u);
  EXPECT_EQ(cluster.stats().byzantine_replies, 3u);
}

TEST_F(MirrorTest, UnverifiableReplyCountsAsFailedPoll) {
  // The mirror is honest at the wire level, but a receiver that trusts a
  // DIFFERENT server key must still refuse what it serves.
  MirroredArchive cluster(params_, net_, timeline_, 1, LinkSpec{.base_delay = 1});
  cluster.publish(update("T1"));
  timeline_.advance_to(2);

  core::ServerKeyPair other = scheme_.server_keygen(rng_);
  bool got = false;
  std::optional<client::FetchStats> failure;
  fetcher(cluster, {0}, budget(2), other.pub)
      .fetch_verified({"T1"}, [&](const client::FetchResult&) { got = true; },
                      [&](const client::FetchStats& s) { failure = s; });
  timeline_.advance_to(1000);
  EXPECT_FALSE(got);
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->rejected_sig, 2u);
  EXPECT_EQ(failure->total_rejected(), 2u);
  EXPECT_EQ(failure->timeouts, 0u);
}

TEST_F(MirrorTest, RelabelledReplyIsRejectedByTagCheck) {
  FaultPlan plan(to_bytes("relabel-mirror"));
  net_.set_fault_plan(&plan);
  MirroredArchive cluster(params_, net_, timeline_, 1, LinkSpec{.base_delay = 1});
  plan.set_byzantine(cluster.mirror_node(0), ByzantineMode::kRelabel);
  cluster.publish(update("stale"));
  cluster.publish(update("T1"));
  timeline_.advance_to(2);

  bool got = false;
  std::optional<client::FetchStats> failure;
  fetcher(cluster, {0}, budget(2))
      .fetch_verified({"T1"}, [&](const client::FetchResult&) { got = true; },
                      [&](const client::FetchStats& s) { failure = s; });
  timeline_.advance_to(1000);
  // The relabelled update claims tag T1 but carries the stale tag's
  // signature: the tag check passes, self-authentication fails.
  EXPECT_FALSE(got);
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->rejected_tag, 0u);  // relabelling forges the tag field
  EXPECT_EQ(failure->rejected_sig, 2u);
  EXPECT_GE(cluster.stats().byzantine_replies, 2u);
}

}  // namespace
}  // namespace tre::simnet
