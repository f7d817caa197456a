// Time-server infrastructure: canonical time strings, simulated timeline,
// passive server, archive catch-up and lossy broadcast.
#include "timeserver/timeserver.h"

#include <gtest/gtest.h>

#include "hashing/drbg.h"

namespace tre::server {
namespace {

// --- TimeSpec -----------------------------------------------------------------

TEST(TimeSpec, CanonicalFormats) {
  std::int64_t t = 1118048445;  // 2005-06-06T09:00:45Z
  EXPECT_EQ(TimeSpec::from_unix(t, Granularity::kSecond).canonical(),
            "2005-06-06T09:00:45Z");
  EXPECT_EQ(TimeSpec::from_unix(t, Granularity::kMinute).canonical(),
            "2005-06-06T09:00Z");
  EXPECT_EQ(TimeSpec::from_unix(t, Granularity::kHour).canonical(),
            "2005-06-06T09Z");
  EXPECT_EQ(TimeSpec::from_unix(t, Granularity::kDay).canonical(), "2005-06-06");
}

TEST(TimeSpec, TruncatesToGranule) {
  std::int64_t t = 1118048445;
  EXPECT_EQ(TimeSpec::from_unix(t, Granularity::kHour).unix_seconds() % 3600, 0);
  EXPECT_EQ(TimeSpec::from_unix(t, Granularity::kDay).unix_seconds() % 86400, 0);
}

TEST(TimeSpec, ParseRoundtrip) {
  for (const char* text : {"2005-06-06T09:00:45Z", "2005-06-06T09:00Z",
                           "2005-06-06T09Z", "2005-06-06", "1970-01-01",
                           "2038-01-19T03:14:08Z", "9999-12-31T23:59:59Z"}) {
    auto ts = TimeSpec::parse(text);
    ASSERT_TRUE(ts.has_value()) << text;
    EXPECT_EQ(ts->canonical(), text);
  }
}

TEST(TimeSpec, ParseRejectsMalformed) {
  for (const char* text :
       {"", "2005", "2005-13-01", "2005-06-32", "2005-06-06T24Z",
        "2005-06-06T08:60Z", "2005-06-06T08:20:60Z", "2005-06-06 08:20:45Z",
        "2005-06-06T08:20:45", "2005-02-30", "garbage"}) {
    EXPECT_FALSE(TimeSpec::parse(text).has_value()) << text;
  }
}

TEST(TimeSpec, EpochAndLeapYearMath) {
  EXPECT_EQ(TimeSpec::from_unix(0, Granularity::kSecond).canonical(),
            "1970-01-01T00:00:00Z");
  // 2004-02-29 existed (leap year).
  auto leap = TimeSpec::parse("2004-02-29");
  ASSERT_TRUE(leap.has_value());
  EXPECT_EQ(leap->next().canonical(), "2004-03-01");
  // 2005 was not a leap year.
  EXPECT_FALSE(TimeSpec::parse("2005-02-29").has_value());
}

TEST(TimeSpec, NextPrevStepByGranule) {
  auto ts = *TimeSpec::parse("2005-06-06T09:00Z");
  EXPECT_EQ(ts.next().canonical(), "2005-06-06T09:01Z");
  EXPECT_EQ(ts.prev().canonical(), "2005-06-06T08:59Z");
  EXPECT_LT(ts, ts.next());
  EXPECT_EQ(ts.next().prev(), ts);
  // Day rollover.
  auto eod = *TimeSpec::parse("2005-06-06T23:59:59Z");
  EXPECT_EQ(eod.next().canonical(), "2005-06-07T00:00:00Z");
}

// --- Timeline ------------------------------------------------------------------

TEST(Timeline, FiresEventsInOrder) {
  Timeline tl(100);
  std::vector<int> fired;
  tl.schedule(10, [&] { fired.push_back(2); });
  tl.schedule(5, [&] { fired.push_back(1); });
  tl.schedule(10, [&] { fired.push_back(3); });  // same instant: FIFO
  tl.advance_to(200);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(tl.now(), 200);
  EXPECT_EQ(tl.pending_events(), 0u);
}

TEST(Timeline, EventsMayScheduleEvents) {
  Timeline tl;
  int count = 0;
  std::function<void()> recur = [&] {
    if (++count < 5) tl.schedule(10, recur);
  };
  tl.schedule(0, recur);
  tl.advance_to(100);
  EXPECT_EQ(count, 5);
}

TEST(Timeline, PartialAdvanceLeavesFutureEvents) {
  Timeline tl;
  int fired = 0;
  tl.schedule(50, [&] { ++fired; });
  tl.advance_to(49);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(tl.pending_events(), 1u);
  tl.advance_to(50);
  EXPECT_EQ(fired, 1);
}

TEST(Timeline, RejectsBackwardsAndNegative) {
  Timeline tl(10);
  EXPECT_THROW(tl.advance_to(5), Error);
  EXPECT_THROW(tl.schedule(-1, [] {}), Error);
}

// --- Archive -------------------------------------------------------------------

class ServerFixture : public ::testing::Test {
 protected:
  ServerFixture()
      : params_(params::load("tre-toy-96")),
        scheme_(params_),
        rng_(to_bytes("timeserver-tests")),
        server_(scheme_.server_keygen(rng_)) {}

  std::shared_ptr<const params::GdhParams> params_;
  core::TreScheme scheme_;
  hashing::HmacDrbg rng_;
  core::ServerKeyPair server_;
};

TEST_F(ServerFixture, ArchiveLookupAndCatchUp) {
  UpdateArchive archive;
  for (int i = 0; i < 10; ++i) {
    archive.put(scheme_.issue_update(server_, "tag-" + std::to_string(i)));
  }
  EXPECT_EQ(archive.size(), 10u);
  EXPECT_TRUE(archive.contains("tag-3"));
  EXPECT_FALSE(archive.contains("tag-99"));
  auto found = archive.find("tag-7");
  ASSERT_TRUE(found.has_value());
  EXPECT_TRUE(scheme_.verify_update(server_.pub, *found));

  size_t cursor = 0;
  EXPECT_EQ(archive.since(cursor).size(), 10u);
  EXPECT_EQ(cursor, 10u);
  archive.put(scheme_.issue_update(server_, "tag-10"));
  auto fresh = archive.since(cursor);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].tag, "tag-10");
  EXPECT_GT(archive.total_bytes(), 0u);
}

TEST_F(ServerFixture, ArchiveIdempotentPutAndConflictDetection) {
  UpdateArchive archive;
  core::KeyUpdate upd = scheme_.issue_update(server_, "tag");
  archive.put(upd);
  archive.put(upd);  // idempotent
  EXPECT_EQ(archive.size(), 1u);
  core::KeyUpdate conflicting{"tag", upd.sig.doubled()};
  EXPECT_THROW(archive.put(conflicting), Error);
}

// --- BroadcastBus ----------------------------------------------------------------

TEST_F(ServerFixture, BroadcastDeliversToAllSubscribers) {
  Timeline tl;
  BroadcastBus bus(tl);
  int received = 0;
  for (int i = 0; i < 5; ++i) {
    bus.subscribe([&](const core::KeyUpdate&) { ++received; });
  }
  bus.publish(scheme_.issue_update(server_, "t"));
  tl.drain_due();
  EXPECT_EQ(received, 5);
  EXPECT_EQ(bus.stats().published, 1u);
  EXPECT_EQ(bus.stats().deliveries, 5u);
  // The server transmitted the update once, not 5 times.
  EXPECT_EQ(bus.stats().bytes_broadcast,
            scheme_.issue_update(server_, "t").to_bytes().size());
}

TEST_F(ServerFixture, BroadcastLossIsApplied) {
  Timeline tl;
  BroadcastBus bus(tl, to_bytes("loss-seed"));
  bus.set_loss_probability(0.5);
  int received = 0;
  bus.subscribe([&](const core::KeyUpdate&) { ++received; });
  for (int i = 0; i < 200; ++i) {
    bus.publish(
        scheme_.issue_update(server_, std::string("t").append(std::to_string(i))));
  }
  tl.drain_due();
  EXPECT_GT(received, 50);
  EXPECT_LT(received, 150);
  EXPECT_EQ(bus.stats().drops + bus.stats().deliveries, 200u);
}

TEST_F(ServerFixture, BroadcastDelayIsHonoured) {
  Timeline tl;
  BroadcastBus bus(tl);
  bus.set_delay_range(3, 3);
  std::int64_t delivered_at = -1;
  bus.subscribe([&](const core::KeyUpdate&) { delivered_at = tl.now(); });
  bus.publish(scheme_.issue_update(server_, "t"));
  tl.advance_to(2);
  EXPECT_EQ(delivered_at, -1);
  tl.advance_to(3);
  EXPECT_EQ(delivered_at, 3);
}

TEST_F(ServerFixture, Unsubscribe) {
  Timeline tl;
  BroadcastBus bus(tl);
  int received = 0;
  auto id = bus.subscribe([&](const core::KeyUpdate&) { ++received; });
  bus.unsubscribe(id);
  bus.publish(scheme_.issue_update(server_, "t"));
  tl.drain_due();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(bus.subscriber_count(), 0u);
}

// --- TimeServer -------------------------------------------------------------------

TEST(TimeServer, TickIssuesEveryDueGranule) {
  Timeline tl(1118048400);  // 2005-06-06T09:00:00Z
  hashing::HmacDrbg rng(to_bytes("ts"));
  TimeServer server(params::load("tre-toy-96"), tl, Granularity::kMinute, rng);
  EXPECT_EQ(server.tick(), 1u);  // the boundary at start time itself
  tl.advance_by(180);            // three more minutes
  EXPECT_EQ(server.tick(), 3u);
  EXPECT_EQ(server.archive().size(), 4u);
  EXPECT_TRUE(server.archive().contains("2005-06-06T09:02Z"));
  EXPECT_EQ(server.stats().updates_issued, 4u);
}

TEST(TimeServer, RunSelfSchedules) {
  Timeline tl(0);
  hashing::HmacDrbg rng(to_bytes("ts-run"));
  TimeServer server(params::load("tre-toy-96"), tl, Granularity::kHour, rng);
  int heard = 0;
  server.bus().subscribe([&](const core::KeyUpdate&) { ++heard; });
  server.run(/*until=*/10 * 3600);
  tl.advance_to(10 * 3600);
  EXPECT_EQ(server.archive().size(), 11u);  // hours 0..10 inclusive
  EXPECT_EQ(heard, 11);
}

TEST(TimeServer, RefusesFutureIssuance) {
  Timeline tl(1000000);
  hashing::HmacDrbg rng(to_bytes("ts-refuse"));
  TimeServer server(params::load("tre-toy-96"), tl, Granularity::kSecond, rng);
  TimeSpec future = TimeSpec::from_unix(tl.now() + 60, Granularity::kSecond);
  EXPECT_THROW(server.issue_for(future), Error);
  TimeSpec past = TimeSpec::from_unix(tl.now() - 60, Granularity::kSecond);
  core::KeyUpdate upd = server.issue_for(past);
  core::TreScheme scheme(params::load("tre-toy-96"));
  EXPECT_TRUE(scheme.verify_update(server.public_key(), upd));
}

TEST(TimeServer, IssueRangeBackfillsAndMatchesSingleIssue) {
  Timeline tl(1118048400);  // 2005-06-06T09:00:00Z
  hashing::HmacDrbg rng(to_bytes("ts-range"));
  auto params = params::load("tre-toy-96");
  TimeServer server(params, tl, Granularity::kMinute, rng);

  // Pre-issue one instant inside the range: issue_range must serve it
  // from the archive, not re-sign it.
  TimeSpec mid = TimeSpec::from_unix(tl.now() - 120, Granularity::kMinute);
  core::KeyUpdate pre = server.issue_for(mid);
  EXPECT_EQ(server.stats().updates_issued, 1u);

  TimeSpec from = TimeSpec::from_unix(tl.now() - 240, Granularity::kMinute);
  TimeSpec to = TimeSpec::from_unix(tl.now(), Granularity::kMinute);
  std::vector<core::KeyUpdate> range = server.issue_range(from, to, /*threads=*/2);
  ASSERT_EQ(range.size(), 5u);  // minutes -4 .. 0 inclusive
  EXPECT_EQ(server.stats().updates_issued, 5u);  // 4 fresh + 1 archived

  core::TreScheme scheme(params);
  TimeSpec t = from;
  for (const core::KeyUpdate& upd : range) {
    EXPECT_EQ(upd.tag, t.canonical());
    EXPECT_TRUE(scheme.verify_update(server.public_key(), upd));
    EXPECT_TRUE(server.archive().contains(upd.tag));
    t = t.next();
  }
  EXPECT_EQ(range[2], pre);  // the archived instant came back verbatim

  // Idempotent: a second call issues nothing new.
  std::vector<core::KeyUpdate> again = server.issue_range(from, to);
  EXPECT_EQ(server.stats().updates_issued, 5u);
  for (size_t i = 0; i < again.size(); ++i) EXPECT_EQ(again[i], range[i]);
}

TEST(TimeServer, IssueRangeRefusesFutureOrInvertedRanges) {
  Timeline tl(1000000);
  hashing::HmacDrbg rng(to_bytes("ts-range-bad"));
  TimeServer server(params::load("tre-toy-96"), tl, Granularity::kSecond, rng);
  TimeSpec now = TimeSpec::from_unix(tl.now(), Granularity::kSecond);
  TimeSpec future = TimeSpec::from_unix(tl.now() + 60, Granularity::kSecond);
  EXPECT_THROW(server.issue_range(now, future), Error);
  TimeSpec past = TimeSpec::from_unix(tl.now() - 60, Granularity::kSecond);
  EXPECT_THROW(server.issue_range(now, past), Error);
}

TEST(TimeServer, UpdatesVerifyAndDecryptEndToEnd) {
  Timeline tl(1118048400);
  hashing::HmacDrbg rng(to_bytes("ts-e2e"));
  auto params = params::load("tre-toy-96");
  TimeServer server(params, tl, Granularity::kMinute, rng);
  core::TreScheme scheme(params);
  core::UserKeyPair user = scheme.user_keygen(server.public_key(), rng);

  // Sender encrypts for two minutes from now — no interaction with server.
  TimeSpec release = TimeSpec::from_unix(tl.now() + 120, Granularity::kMinute);
  Bytes msg = to_bytes("sealed bid: $1M");
  core::SealedCiphertext ct =
      scheme.seal(core::Mode::kBasic, msg, user.pub, server.public_key(),
                  release.canonical(), rng);

  // Receiver subscribes and waits.
  std::optional<Bytes> opened;
  server.bus().subscribe([&](const core::KeyUpdate& upd) {
    if (upd.tag == release.canonical()) {
      opened = scheme.open(ct, user.a, upd, server.public_key());
    }
  });
  server.run(tl.now() + 300);
  tl.advance_by(60);
  server.tick();
  tl.drain_due();
  EXPECT_FALSE(opened.has_value());  // too early
  tl.advance_by(60);
  server.tick();
  tl.drain_due();
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
}

TEST(TimeServer, MissedUpdateRecoveredFromArchive) {
  Timeline tl(0);
  hashing::HmacDrbg rng(to_bytes("ts-missed"));
  auto params = params::load("tre-toy-96");
  TimeServer server(params, tl, Granularity::kHour, rng);
  server.bus().set_loss_probability(1.0);  // receiver misses everything

  core::TreScheme scheme(params);
  core::UserKeyPair user = scheme.user_keygen(server.public_key(), rng);
  TimeSpec release = TimeSpec::from_unix(3600, Granularity::kHour);
  Bytes msg = to_bytes("recovered");
  core::SealedCiphertext ct =
      scheme.seal(core::Mode::kBasic, msg, user.pub, server.public_key(),
                  release.canonical(), rng);

  int heard = 0;
  server.bus().subscribe([&](const core::KeyUpdate&) { ++heard; });
  server.run(2 * 3600);
  tl.advance_to(2 * 3600);
  EXPECT_EQ(heard, 0);  // all broadcasts lost

  // Catch-up from the public archive still works.
  auto upd = server.archive().find(release.canonical());
  ASSERT_TRUE(upd.has_value());
  EXPECT_EQ(scheme.open(ct, user.a, *upd, server.public_key()), msg);
}

}  // namespace
}  // namespace tre::server
