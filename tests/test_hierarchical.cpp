// Hierarchical timed release (§6 future work): time-tree paths, the
// non-escrowed HIBE-TRE, archive compaction and derivation catch-up.
#include "timeserver/hierarchical.h"

#include <gtest/gtest.h>

#include "hashing/drbg.h"

namespace tre::server {
namespace {

class HierarchicalTest : public ::testing::Test {
 protected:
  HierarchicalTest()
      : params_(params::load("tre-toy-96")),
        timeline_(TimeSpec::parse("2005-06-06T09:00Z")->unix_seconds()),
        rng_(to_bytes("hier-tests")),
        server_(params_, timeline_, rng_),
        htre_(params_),
        scheme_(params_) {
    // Receiver key bound to the HIBE root (P0, Q0).
    core::ServerPublicKey bind{server_.public_key().p0, server_.public_key().q0};
    user_ = scheme_.user_keygen(bind, rng_);
  }

  std::shared_ptr<const params::GdhParams> params_;
  Timeline timeline_;
  hashing::HmacDrbg rng_;
  HierarchicalTimeServer server_;
  HierarchicalTre htre_;
  core::TreScheme scheme_;
  core::UserKeyPair user_;
};

TEST(TimePath, DepthsPerGranularity) {
  auto minute = *TimeSpec::parse("2005-06-06T09:07Z");
  auto path = time_path(minute);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], "2005-06-06");
  EXPECT_EQ(path[1], "2005-06-06T09Z");
  EXPECT_EQ(path[2], "2005-06-06T09:07Z");

  EXPECT_EQ(time_path(*TimeSpec::parse("2005-06-06T09Z")).size(), 2u);
  EXPECT_EQ(time_path(*TimeSpec::parse("2005-06-06")).size(), 1u);
  EXPECT_THROW(time_path(*TimeSpec::parse("2005-06-06T09:07:01Z")), Error);
}

TEST_F(HierarchicalTest, LeafKeyDecryptsAtRelease) {
  auto release = *TimeSpec::parse("2005-06-06T09:05Z");
  Bytes msg = to_bytes("hierarchical release");
  auto ct = htre_.encrypt(msg, user_.pub, server_.public_key(), release, rng_);
  timeline_.advance_to(release.unix_seconds());
  hibe::NodeKey leaf = server_.key_for(release);
  EXPECT_EQ(htre_.decrypt(ct, user_.a, leaf), msg);
}

TEST_F(HierarchicalTest, ServerRefusesEarlyKeys) {
  auto release = *TimeSpec::parse("2005-06-06T09:05Z");
  EXPECT_THROW(server_.key_for(release), Error);  // minute not arrived
  timeline_.advance_to(release.unix_seconds());
  // The containing hour has NOT completed: its internal key stays sealed.
  EXPECT_THROW(server_.key_for(*TimeSpec::parse("2005-06-06T09Z")), Error);
  EXPECT_THROW(server_.key_for(*TimeSpec::parse("2005-06-06")), Error);
}

TEST_F(HierarchicalTest, WrongReceiverAndEscrowResistance) {
  auto release = *TimeSpec::parse("2005-06-06T09:05Z");
  Bytes msg = to_bytes("bound to the receiver");
  auto ct = htre_.encrypt(msg, user_.pub, server_.public_key(), release, rng_);
  timeline_.advance_to(release.unix_seconds());
  hibe::NodeKey leaf = server_.key_for(release);
  // Another user's secret fails.
  core::ServerPublicKey bind{server_.public_key().p0, server_.public_key().q0};
  core::UserKeyPair eve = scheme_.user_keygen(bind, rng_);
  EXPECT_NE(htre_.decrypt(ct, eve.a, leaf), msg);
  // The published key alone (a = 1, i.e. the server/public view) fails:
  // session keys are bound to the receiver secret.
  EXPECT_NE(htre_.decrypt(ct, core::Scalar::from_u64(1), leaf), msg);
}

TEST_F(HierarchicalTest, InfinityReceiverKeyRejected) {
  // (O, O) parses from the wire and satisfies ê(aG, Q0) == ê(P0, asG),
  // both sides being 1, but would seal under K = 1, which anyone can
  // read. Encryption must refuse it.
  Bytes o = ec::G1Point::infinity(params_->ctx()).to_bytes_compressed();
  core::UserPublicKey blank = core::UserPublicKey::from_bytes(*params_, concat({o, o}));
  auto release = *TimeSpec::parse("2005-06-06T09:05Z");
  EXPECT_THROW(htre_.encrypt(to_bytes("m"), blank, server_.public_key(), release, rng_),
               Error);
}

TEST_F(HierarchicalTest, CompletedHourKeyDerivesAllItsMinutes) {
  auto release = *TimeSpec::parse("2005-06-06T09:05Z");
  Bytes msg = to_bytes("derived decryption");
  auto ct = htre_.encrypt(msg, user_.pub, server_.public_key(), release, rng_);
  // Receiver missed everything; the hour completes at 10:00.
  timeline_.advance_to(TimeSpec::parse("2005-06-06T10Z")->unix_seconds());
  hibe::NodeKey hour = server_.key_for(*TimeSpec::parse("2005-06-06T09Z"));
  EXPECT_TRUE(hour.can_derive);
  hibe::NodeKey leaf = htre_.hibe().derive_child(server_.public_key().p0, hour,
                                                 "2005-06-06T09:05Z",
                                                 core::Scalar::from_u64(1));
  EXPECT_EQ(htre_.decrypt(ct, user_.a, leaf), msg);
}

TEST_F(HierarchicalTest, TickPublishesAndCompacts) {
  // Run 2h05m: minutes 09:00..11:05 (125+1 leaves), hours 09 and 10
  // complete, so their minutes compact away.
  timeline_.advance_to(TimeSpec::parse("2005-06-06T11:05Z")->unix_seconds());
  server_.tick();
  // Archive: 2 internal hour keys + 6 leaves of the current hour
  // (11:00..11:05). The compacted representation is tiny.
  EXPECT_EQ(server_.archive().entries(), 2u + 6u);
  EXPECT_EQ(server_.stats().leaves_published, 126u);
  EXPECT_EQ(server_.stats().internal_published, 2u);

  // Every minute of hour 09 is still recoverable via derivation.
  auto got = server_.archive().leaf_for(htre_.hibe(), server_.public_key().p0,
                                        *TimeSpec::parse("2005-06-06T09:33Z"));
  ASSERT_TRUE(got.has_value());
  // And a current-hour minute is a direct hit.
  auto direct = server_.archive().leaf_for(htre_.hibe(), server_.public_key().p0,
                                           *TimeSpec::parse("2005-06-06T11:03Z"));
  ASSERT_TRUE(direct.has_value());
  // Future minutes are absent.
  EXPECT_FALSE(server_.archive()
                   .leaf_for(htre_.hibe(), server_.public_key().p0,
                             *TimeSpec::parse("2005-06-06T11:30Z"))
                   .has_value());
}

TEST_F(HierarchicalTest, ArchiveDerivedLeafDecrypts) {
  auto release = *TimeSpec::parse("2005-06-06T09:41Z");
  Bytes msg = to_bytes("catch-up via archive derivation");
  auto ct = htre_.encrypt(msg, user_.pub, server_.public_key(), release, rng_);
  timeline_.advance_to(TimeSpec::parse("2005-06-06T10:01Z")->unix_seconds());
  server_.tick();
  auto leaf = server_.archive().leaf_for(htre_.hibe(), server_.public_key().p0, release);
  ASSERT_TRUE(leaf.has_value());
  EXPECT_EQ(htre_.decrypt(ct, user_.a, *leaf), msg);
}

TEST_F(HierarchicalTest, DayCompactionToOneKey) {
  // A full day plus a bit: the completed day compacts to ONE archive
  // entry; all 1440 of its minutes stay derivable.
  timeline_.advance_to(TimeSpec::parse("2005-06-07T00:02Z")->unix_seconds());
  server_.tick();
  // Entries: 1 day key (06-06 partial day from 09:00 — still compacted
  // as soon as the day boundary passed) + leaves of the current hour.
  auto leaf = server_.archive().leaf_for(htre_.hibe(), server_.public_key().p0,
                                         *TimeSpec::parse("2005-06-06T23:59Z"));
  ASSERT_TRUE(leaf.has_value());
  auto early = server_.archive().leaf_for(htre_.hibe(), server_.public_key().p0,
                                          *TimeSpec::parse("2005-06-06T14:30Z"));
  ASSERT_TRUE(early.has_value());
  EXPECT_LE(server_.archive().entries(), 4u);  // day key + 00:00..00:02 leaves
}

}  // namespace
}  // namespace tre::server
