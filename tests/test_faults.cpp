// Deterministic fault injection: scripted partitions, crash windows and
// Byzantine mirror behaviours, and their effect on the simulated network.
#include "simnet/faults.h"

#include <gtest/gtest.h>

#include "client/fetcher.h"
#include "client/simnet_source.h"
#include "simnet/mirrors.h"

namespace tre::simnet {
namespace {

TEST(FaultPlanTest, WindowsAreHalfOpen) {
  FaultPlan plan(to_bytes("w"));
  plan.partition_link(0, 1, 10, 20);
  EXPECT_TRUE(plan.link_up(0, 1, 9));
  EXPECT_FALSE(plan.link_up(0, 1, 10));
  EXPECT_FALSE(plan.link_up(0, 1, 19));
  EXPECT_TRUE(plan.link_up(0, 1, 20));
  // Symmetric in the endpoints.
  EXPECT_FALSE(plan.link_up(1, 0, 15));
  // Other links unaffected.
  EXPECT_TRUE(plan.link_up(0, 2, 15));

  plan.crash_node(3, 5, 8);
  plan.crash_node(3, 12, 14);  // windows accumulate
  EXPECT_FALSE(plan.node_up(3, 5));
  EXPECT_TRUE(plan.node_up(3, 8));
  EXPECT_FALSE(plan.node_up(3, 13));
  EXPECT_TRUE(plan.node_up(3, 14));
  EXPECT_TRUE(plan.node_up(4, 6));
}

TEST(FaultPlanTest, ValidatesInputs) {
  FaultPlan plan(to_bytes("v"));
  EXPECT_THROW(plan.partition_link(1, 1, 0, 5), Error);
  EXPECT_THROW(plan.partition_link(0, 1, 5, 4), Error);
  EXPECT_THROW(plan.crash_node(0, 9, 3), Error);
  EXPECT_THROW(plan.flip_one_bit({}), Error);
}

TEST(FaultPlanTest, ByzantineAssignmentAndReset) {
  FaultPlan plan(to_bytes("b"));
  EXPECT_EQ(plan.behaviour(7), ByzantineMode::kHonest);
  plan.set_byzantine(7, ByzantineMode::kGarbage);
  EXPECT_EQ(plan.behaviour(7), ByzantineMode::kGarbage);
  plan.set_byzantine(7, ByzantineMode::kHonest);
  EXPECT_EQ(plan.behaviour(7), ByzantineMode::kHonest);
  EXPECT_TRUE(plan.empty());  // honest reset leaves no scripted fault
}

TEST(FaultPlanTest, CorruptionIsDeterministicPerSeed) {
  Bytes wire = to_bytes("some update bytes on the wire");
  FaultPlan a(to_bytes("seed-1"));
  FaultPlan b(to_bytes("seed-1"));
  FaultPlan c(to_bytes("seed-2"));
  Bytes fa = a.flip_one_bit(wire);
  Bytes fb = b.flip_one_bit(wire);
  EXPECT_EQ(fa, fb);
  EXPECT_NE(fa, wire);
  // Exactly one bit differs.
  int bits = 0;
  for (size_t i = 0; i < wire.size(); ++i) {
    bits += __builtin_popcount(static_cast<unsigned>(fa[i] ^ wire[i]));
  }
  EXPECT_EQ(bits, 1);
  EXPECT_EQ(a.garbage(16), b.garbage(16));
  EXPECT_NE(a.garbage(16), c.garbage(16));
}

class FaultedNetworkTest : public ::testing::Test {
 protected:
  FaultedNetworkTest()
      : timeline_(0),
        net_(timeline_, to_bytes("faultnet")),
        plan_(to_bytes("faultnet-plan")) {
    net_.set_fault_plan(&plan_);
    a_ = net_.add_node("a");
    b_ = net_.add_node("b");
    net_.connect(a_, b_, LinkSpec{.base_delay = 2});
  }

  server::Timeline timeline_;
  Network net_;
  FaultPlan plan_;
  NodeId a_ = 0, b_ = 0;
};

TEST_F(FaultedNetworkTest, PartitionDropsThenHeals) {
  plan_.partition_link(a_, b_, 0, 10);
  int delivered = 0;
  net_.send(a_, b_, 1, [&] { ++delivered; });  // during the partition
  timeline_.advance_to(10);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net_.stats().fault_drops, 1u);
  net_.send(a_, b_, 1, [&] { ++delivered; });  // after it heals
  timeline_.advance_to(20);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net_.stats().fault_drops, 1u);
}

TEST_F(FaultedNetworkTest, CrashedSenderCannotSend) {
  plan_.crash_node(a_, 0, 5);
  bool delivered = false;
  net_.send(a_, b_, 1, [&] { delivered = true; });
  timeline_.advance_to(10);
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net_.stats().fault_drops, 1u);
}

TEST_F(FaultedNetworkTest, ReceiverDownAtArrivalLosesTheMessage) {
  // Sent at t=0 (both ends up), arrives t=2 while b is down.
  plan_.crash_node(b_, 1, 5);
  bool delivered = false;
  net_.send(a_, b_, 1, [&] { delivered = true; });
  timeline_.advance_to(10);
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net_.stats().fault_drops, 1u);
  // The same send after recovery goes through.
  net_.send(a_, b_, 1, [&] { delivered = true; });
  timeline_.advance_to(20);
  EXPECT_TRUE(delivered);
}

TEST_F(FaultedNetworkTest, CrashedMirrorMissesReplication) {
  auto params = params::load("tre-toy-96");
  core::TreScheme scheme(params);
  hashing::HmacDrbg rng(to_bytes("crash-rng"));
  core::ServerKeyPair server = scheme.server_keygen(rng);

  MirroredArchive cluster(params, net_, timeline_, 2, LinkSpec{.base_delay = 1});
  // Mirror 0 is down when replication arrives; mirror 1 is fine.
  plan_.crash_node(cluster.mirror_node(0), 0, 10);
  cluster.publish(scheme.issue_update(server, "T1"));
  timeline_.advance_to(20);

  // One fetcher per mirror on the same receiver node, each through the
  // verify-everything pipeline with a two-poll budget.
  client::FetcherConfig cfg;
  cfg.attempts_per_tag = 2;
  NodeId rx = net_.add_node("rx");
  client::SimnetSource source(cluster, rx, LinkSpec{.base_delay = 1});
  client::UpdateFetcher f0(scheme, server.pub, source, timeline_, {0},
                           to_bytes("crash-jitter"), cfg);
  client::UpdateFetcher f1(scheme, server.pub, source, timeline_, {1},
                           to_bytes("crash-jitter"), cfg);
  bool got0 = false, got1 = false;
  f0.fetch_verified({"T1"}, [&](const client::FetchResult&) { got0 = true; });
  f1.fetch_verified({"T1"}, [&](const client::FetchResult&) { got1 = true; });
  timeline_.advance_to(100);
  EXPECT_FALSE(got0);  // replica never stored the update
  EXPECT_TRUE(got1);
}

TEST(FaultDeterminismTest, IdenticalSeedsReplayIdentically) {
  auto run = [] {
    server::Timeline timeline(0);
    Network net(timeline, to_bytes("replay"));
    FaultPlan plan(to_bytes("replay-plan"));
    net.set_fault_plan(&plan);
    NodeId a = net.add_node("a");
    NodeId b = net.add_node("b");
    net.connect(a, b, LinkSpec{.base_delay = 1, .jitter = 3, .loss = 0.3});
    plan.partition_link(a, b, 40, 60);
    int delivered = 0;
    for (int t = 0; t < 100; ++t) {
      timeline.schedule(t, [&, a, b] {
        net.send(a, b, 1, [&] { ++delivered; });
      });
    }
    timeline.advance_to(200);
    return std::make_pair(delivered, net.stats().fault_drops);
  };
  auto first = run();
  auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_GT(first.first, 0);
  EXPECT_GT(first.second, 0u);
}

}  // namespace
}  // namespace tre::simnet
