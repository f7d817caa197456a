// tred, end to end: the frame codec under a hostile-bytes corpus, the
// store's equivocation refusal, a LIVE daemon serving real sockets, and
// the full Byzantine fetch pipeline running through SocketTransport
// against a mix of honest and hostile peers.
//
// The acceptance bar mirrors test_fetcher's: across every scenario —
// garbage frames, truncated replies, oversized headers, mid-reply
// disconnects, relabelled and corrupted updates — the client side may
// reject, time out, or fail over, but it must NEVER throw across the
// event loop and NEVER accept bytes that fail the pairing check.
#include "daemon/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "client/fetcher.h"
#include "client/socket_transport.h"
#include "core/tre.h"
#include "daemon/frame.h"
#include "daemon/store.h"
#include "hashing/drbg.h"

namespace tre::daemon {
namespace {

// --- Frame codec: round trips ------------------------------------------------

TEST(Frame, RoundTripsEveryTypeThroughBytewiseFeed) {
  const FrameType types[] = {FrameType::kGetKey,     FrameType::kGetUpdate,
                             FrameType::kGetRange,   FrameType::kPing,
                             FrameType::kKeyReply,   FrameType::kUpdateReply,
                             FrameType::kRangeReply, FrameType::kPong,
                             FrameType::kError};
  Bytes stream;
  for (FrameType t : types) {
    Bytes payload = to_bytes("payload-" + std::to_string(int(t)));
    Bytes f = encode_frame(t, payload);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  // One byte at a time: reassembly must be independent of read boundaries.
  FrameReader reader;
  std::vector<Frame> got;
  for (std::uint8_t b : stream) {
    reader.feed(ByteSpan(&b, 1));
    while (auto f = reader.next()) got.push_back(std::move(*f));
  }
  ASSERT_EQ(got.size(), std::size(types));
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].type, types[i]);
    EXPECT_EQ(got[i].payload,
              to_bytes("payload-" + std::to_string(int(types[i]))));
  }
  EXPECT_FALSE(reader.broken());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Frame, EmptyPayloadAndMaxPayloadRoundTrip) {
  FrameReader reader;
  Bytes empty = encode_frame(FrameType::kGetKey, {});
  EXPECT_EQ(empty.size(), kHeaderBytes);
  reader.feed(empty);
  auto f = reader.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(f->payload.empty());

  Bytes big(kMaxPayload, 0xab);
  reader.feed(encode_frame(FrameType::kUpdateReply, big));
  f = reader.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->payload.size(), kMaxPayload);
  EXPECT_THROW(encode_frame(FrameType::kUpdateReply, Bytes(kMaxPayload + 1)),
               Error);
}

// --- Frame codec: the hostile corpus -----------------------------------------

TEST(Frame, DamageLatchesWithTheRightCause) {
  struct Case {
    const char* name;
    Bytes wire;
    FrameError want;
  };
  Bytes good = encode_frame(FrameType::kPing, to_bytes("x"));
  Bytes bad_magic = good;
  bad_magic[0] = 'X';
  Bytes bad_version = good;
  bad_version[4] = 99;
  Bytes bad_type = good;
  bad_type[5] = 0x42;
  Bytes oversized = good;
  oversized[6] = 0xff;  // be32 length = 0xff....: over any cap
  const Case cases[] = {
      {"magic", bad_magic, FrameError::kBadMagic},
      {"version", bad_version, FrameError::kBadVersion},
      {"type", bad_type, FrameError::kUnknownType},
      {"length", oversized, FrameError::kOversized},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    FrameReader reader;
    reader.feed(c.wire);
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_TRUE(reader.broken());
    EXPECT_EQ(reader.error(), c.want);
    // Latched: more bytes are dropped, no frames ever emerge.
    reader.feed(good);
    EXPECT_FALSE(reader.next().has_value());
  }
}

TEST(Frame, PartialHeaderIsPatienceNotDamage) {
  Bytes wire = encode_frame(FrameType::kPing, to_bytes("abc"));
  FrameReader reader;
  reader.feed(ByteSpan(wire.data(), kHeaderBytes - 1));
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.broken());
  reader.feed(ByteSpan(wire.data() + kHeaderBytes - 1,
                       wire.size() - (kHeaderBytes - 1)));
  EXPECT_TRUE(reader.next().has_value());
}

TEST(Frame, RequestReaderEnforcesTheSmallerCap) {
  // The daemon's per-connection readers cap payloads at the REQUEST
  // limit: a 1 MiB frame that would be fine from a server is hostile
  // from a client.
  Bytes wire = encode_frame(FrameType::kGetUpdate, Bytes(kMaxRequestPayload + 1));
  FrameReader reader(kMaxRequestPayload);
  reader.feed(wire);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.error(), FrameError::kOversized);
}

TEST(Frame, RandomGarbageCorpusNeverThrowsNeverYields) {
  // 256 deterministic random streams: none starts with the magic, so
  // every one must latch kBadMagic (or wait for more header bytes) and
  // produce zero frames — and, critically, zero exceptions.
  hashing::HmacDrbg rng(to_bytes("frame-garbage-corpus"));
  for (int i = 0; i < 256; ++i) {
    Bytes noise = rng.bytes(1 + (i % 64));
    if (noise.size() >= 4 && std::memcmp(noise.data(), kMagic.data(), 4) == 0)
      continue;  // astronomically unlikely; skip rather than special-case
    FrameReader reader;
    EXPECT_NO_THROW({
      reader.feed(noise);
      while (reader.next().has_value()) {
      }
    });
    if (noise.size() >= kHeaderBytes) {
      EXPECT_TRUE(reader.broken());
    }
  }
}

TEST(Frame, TruncationCorpusForPayloadCodecs) {
  // Every strict prefix of a valid payload must parse to nullopt —
  // never throw, never return a half-filled struct.
  Bytes key = encode_key_reply("tre-toy-96", to_bytes("pubkeybytes"));
  for (size_t n = 0; n < key.size(); ++n) {
    if (auto r = try_parse_key_reply(ByteSpan(key.data(), n))) {
      // Prefixes that drop only pub bytes still parse (the codec cannot
      // know the expected point width) — but never with an empty pub.
      EXPECT_FALSE(r->pub.empty());
    }
  }

  std::vector<Bytes> updates = {to_bytes("u-one"), to_bytes("u-two")};
  Bytes range = encode_range_reply(7, 3, updates);
  auto full = try_parse_range_reply(range);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->total, 7u);
  EXPECT_EQ(full->start, 3u);
  ASSERT_EQ(full->updates.size(), 2u);
  EXPECT_EQ(full->updates[1], to_bytes("u-two"));
  for (size_t n = 0; n < range.size(); ++n) {
    EXPECT_FALSE(try_parse_range_reply(ByteSpan(range.data(), n)).has_value())
        << "prefix " << n;
  }
  // Trailing bytes are forgery surface, not slack.
  Bytes padded = range;
  padded.push_back(0);
  EXPECT_FALSE(try_parse_range_reply(padded).has_value());

  // A hostile count dies on bounds checks, not on a giant reserve.
  Bytes hostile = encode_range_reply(1, 0, {to_bytes("u")});
  hostile[16] = 0xff;  // count := 0xff000001
  EXPECT_FALSE(try_parse_range_reply(hostile).has_value());

  Bytes get = encode_get_range(9, 4);
  auto req = try_parse_get_range(get);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->start, 9u);
  EXPECT_EQ(req->max_count, 4u);
  for (size_t n = 0; n < get.size(); ++n) {
    EXPECT_FALSE(try_parse_get_range(ByteSpan(get.data(), n)).has_value());
  }

  Bytes err = encode_error(Errc::kNotFound, "nope");
  auto werr = try_parse_error(err);
  ASSERT_TRUE(werr.has_value());
  EXPECT_EQ(werr->code, Errc::kNotFound);
  EXPECT_EQ(werr->message, "nope");
  EXPECT_FALSE(try_parse_error({}).has_value());
  Bytes unknown_code = {0x7f};
  EXPECT_FALSE(try_parse_error(unknown_code).has_value());
}

TEST(Frame, ErrcWireCodesRoundTrip) {
  for (Errc e : {Errc::kFutureInstant, Errc::kBadRange, Errc::kConflict,
                 Errc::kMalformed, Errc::kSelftestFailed, Errc::kNotFound,
                 Errc::kOverloaded, Errc::kUnsupportedVersion}) {
    auto back = errc_from_wire(errc_wire_code(e));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, e);
  }
  EXPECT_FALSE(errc_from_wire(0).has_value());
  EXPECT_FALSE(errc_from_wire(200).has_value());
}

// --- Store -------------------------------------------------------------------

TEST(Store, PutIsIdempotentButNeverEquivocates) {
  Store s;
  auto first = s.put("T1", to_bytes("wire-1"));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value());
  auto again = s.put("T1", to_bytes("wire-1"));
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value());  // identical re-publish: a no-op
  auto conflict = s.put("T1", to_bytes("wire-2"));
  ASSERT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.error(), Errc::kConflict);
  ASSERT_TRUE(s.find("T1").has_value());
  EXPECT_EQ(*s.find("T1"), to_bytes("wire-1"));  // the original survived
  EXPECT_FALSE(s.find("T2").has_value());
  EXPECT_EQ(s.size(), 1u);
}

TEST(Store, RangeHonoursCountAndByteBudgets) {
  Store s;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(s.put(std::string("T").append(std::to_string(i)),
                      Bytes(100, std::uint8_t(i))).ok());
  }
  Store::RangeView all = s.range(0, 100, kMaxPayload);
  EXPECT_EQ(all.total, 10u);
  EXPECT_EQ(all.updates.size(), 10u);

  Store::RangeView capped = s.range(2, 3, kMaxPayload);
  ASSERT_EQ(capped.updates.size(), 3u);
  EXPECT_EQ(capped.updates[0][0], 2);  // starts at publication position 2

  // A byte budget that fits ~2 items stops early; total still reports 10
  // so a catch-up client knows it is behind.
  Store::RangeView tight = s.range(0, 100, 250);
  EXPECT_EQ(tight.total, 10u);
  EXPECT_LT(tight.updates.size(), 3u);
  EXPECT_FALSE(tight.updates.empty());

  Store::RangeView past_end = s.range(50, 10, kMaxPayload);
  EXPECT_EQ(past_end.total, 10u);
  EXPECT_TRUE(past_end.updates.empty());
}

// --- Live daemon over real sockets -------------------------------------------

// Raw-socket helper for the hostile-client tests: everything the daemon
// must survive that SocketTransport would never send.
class RawClient {
 public:
  explicit RawClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  void send_bytes(ByteSpan b) {
    ASSERT_EQ(::send(fd_, b.data(), b.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(b.size()));
  }

  /// Reads one frame (or EOF/timeout -> nullopt) within `timeout_ms`.
  std::optional<Frame> read_frame(int timeout_ms = 2000) {
    FrameReader reader;
    std::uint8_t buf[4096];
    for (;;) {
      if (auto f = reader.next()) return f;
      if (reader.broken()) return std::nullopt;
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, timeout_ms) <= 0) return std::nullopt;
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return std::nullopt;
      reader.feed(ByteSpan(buf, size_t(n)));
    }
  }

  /// True when the peer closed (EOF observed within the timeout).
  bool reaches_eof(int timeout_ms = 2000) {
    std::uint8_t buf[256];
    for (;;) {
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, timeout_ms) <= 0) return false;
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

class DaemonTest : public ::testing::Test {
 protected:
  void boot(DaemonConfig cfg = {}) {
    store_ = std::make_shared<Store>();
    store_->set_server_key("tre-toy-96", to_bytes("not-a-real-key"));
    ASSERT_TRUE(store_->put("T1", to_bytes("update-T1-wire")).ok());
    ASSERT_TRUE(store_->put("T2", to_bytes("update-T2-wire")).ok());
    daemon_ = std::make_unique<Daemon>(store_, cfg);
    thread_ = std::thread([this] { daemon_->run(); });
  }

  void TearDown() override {
    if (daemon_) daemon_->stop();
    if (thread_.joinable()) thread_.join();
  }

  std::shared_ptr<Store> store_;
  std::unique_ptr<Daemon> daemon_;
  std::thread thread_;
};

TEST_F(DaemonTest, ServesKeyUpdateRangeAndPing) {
  boot();
  client::SocketTransport t({{"127.0.0.1", daemon_->port()}});

  EXPECT_TRUE(t.ping(0));

  auto key = t.get_key(0);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(key->set_name, "tre-toy-96");
  EXPECT_EQ(key->pub, to_bytes("not-a-real-key"));

  std::optional<Bytes> got;
  t.request(0, "T2", [&](Bytes b) { got = std::move(b); });
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, to_bytes("update-T2-wire"));

  auto range = t.get_range(0, 0, 10);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->total, 2u);
  ASSERT_EQ(range->updates.size(), 2u);
  EXPECT_EQ(range->updates[0], to_bytes("update-T1-wire"));

  // All of that rode ONE connection.
  EXPECT_EQ(t.connects(), 1u);
  Daemon::Stats s = daemon_->stats();
  EXPECT_EQ(s.requests, 4u);
  EXPECT_EQ(s.bad_frames, 0u);
}

TEST_F(DaemonTest, MissingArtifactsAnswerKErrorNotSilence) {
  boot();
  client::SocketTransport t({{"127.0.0.1", daemon_->port()}});

  std::optional<Bytes> got;
  t.request(0, "T-missing", [&](Bytes b) { got = std::move(b); });
  EXPECT_FALSE(got.has_value());
  ASSERT_TRUE(t.last_error().has_value());
  EXPECT_EQ(t.last_error()->code, Errc::kNotFound);

  // An unconfigured key answers kError too.
  auto bare_store = std::make_shared<Store>();
  Daemon bare(bare_store, {});
  std::thread th([&] { bare.run(); });
  client::SocketTransport t2({{"127.0.0.1", bare.port()}});
  EXPECT_FALSE(t2.get_key(0).has_value());
  ASSERT_TRUE(t2.last_error().has_value());
  EXPECT_EQ(t2.last_error()->code, Errc::kNotFound);
  bare.stop();
  th.join();
}

TEST_F(DaemonTest, GarbageFramesEarnAnErrorAndAClose) {
  boot();
  RawClient c(daemon_->port());
  ASSERT_TRUE(c.connected());
  c.send_bytes(to_bytes("this is not a frame at all"));
  auto f = c.read_frame();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FrameType::kError);
  auto err = try_parse_error(f->payload);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, Errc::kMalformed);
  EXPECT_TRUE(c.reaches_eof());

  // The loop survived: a fresh, polite client is served normally.
  client::SocketTransport t({{"127.0.0.1", daemon_->port()}});
  EXPECT_TRUE(t.ping(0));
  EXPECT_GE(daemon_->stats().bad_frames, 1u);
}

TEST_F(DaemonTest, WrongVersionGetsUnsupportedVersion) {
  boot();
  RawClient c(daemon_->port());
  ASSERT_TRUE(c.connected());
  Bytes wire = encode_frame(FrameType::kPing, {});
  wire[4] = 9;  // future protocol version
  c.send_bytes(wire);
  auto f = c.read_frame();
  ASSERT_TRUE(f.has_value());
  ASSERT_EQ(f->type, FrameType::kError);
  auto err = try_parse_error(f->payload);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, Errc::kUnsupportedVersion);
  EXPECT_TRUE(c.reaches_eof());
}

TEST_F(DaemonTest, OversizedRequestIsSheddedNotBuffered) {
  boot();
  RawClient c(daemon_->port());
  ASSERT_TRUE(c.connected());
  // Header claims 1 MiB: over the REQUEST cap even though under the
  // frame cap. The daemon must refuse on the header alone.
  Bytes wire = encode_frame(FrameType::kGetUpdate, Bytes(kMaxPayload, 0));
  c.send_bytes(ByteSpan(wire.data(), kHeaderBytes));
  auto f = c.read_frame();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FrameType::kError);
  EXPECT_TRUE(c.reaches_eof());
}

TEST_F(DaemonTest, ReplyTypedFramesFromClientsAreRefusedPolitely) {
  boot();
  RawClient c(daemon_->port());
  ASSERT_TRUE(c.connected());
  // Syntactically valid, semantically absurd: a client sending kPong.
  c.send_bytes(encode_frame(FrameType::kPong, {}));
  auto f = c.read_frame();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FrameType::kError);
  auto err = try_parse_error(f->payload);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, Errc::kMalformed);
  // NOT framing damage: the connection stays up for real requests.
  c.send_bytes(encode_frame(FrameType::kPing, to_bytes("still here")));
  f = c.read_frame();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FrameType::kPong);
}

TEST_F(DaemonTest, ShedsGracefullyAtTheConnectionCap) {
  DaemonConfig cfg;
  cfg.max_conns = 2;
  boot(cfg);

  RawClient a(daemon_->port()), b(daemon_->port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());
  a.send_bytes(encode_frame(FrameType::kPing, {}));
  ASSERT_TRUE(a.read_frame().has_value());  // both are really registered
  b.send_bytes(encode_frame(FrameType::kPing, {}));
  ASSERT_TRUE(b.read_frame().has_value());

  // The third is told WHY before the close: kError(kOverloaded), no hang.
  RawClient c(daemon_->port());
  ASSERT_TRUE(c.connected());
  auto f = c.read_frame();
  ASSERT_TRUE(f.has_value());
  ASSERT_EQ(f->type, FrameType::kError);
  auto err = try_parse_error(f->payload);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, Errc::kOverloaded);
  EXPECT_TRUE(c.reaches_eof());
  EXPECT_GE(daemon_->stats().shed, 1u);

  // Existing connections were untouched by the shed.
  a.send_bytes(encode_frame(FrameType::kPing, {}));
  EXPECT_TRUE(a.read_frame().has_value());
}

TEST_F(DaemonTest, IdleConnectionsAreReaped) {
  DaemonConfig cfg;
  cfg.idle_timeout_ms = 200;
  boot(cfg);
  RawClient c(daemon_->port());
  ASSERT_TRUE(c.connected());
  EXPECT_TRUE(c.reaches_eof(3000));  // reaped without us sending a byte
  EXPECT_GE(daemon_->stats().idle_closed, 1u);
}

TEST_F(DaemonTest, MidFrameDisconnectLeavesTheLoopServing) {
  boot();
  {
    RawClient c(daemon_->port());
    ASSERT_TRUE(c.connected());
    Bytes wire = encode_frame(FrameType::kGetUpdate, to_bytes("T1"));
    c.send_bytes(ByteSpan(wire.data(), wire.size() / 2));
  }  // dtor closes mid-frame
  client::SocketTransport t({{"127.0.0.1", daemon_->port()}});
  EXPECT_TRUE(t.ping(0));
}

// --- Hostile peers vs. the socket fetcher ------------------------------------

/// A fake "mirror" speaking raw TCP with a configurable pathology. One
/// connection at a time, one thread each — these tests exercise client
/// robustness, not server throughput.
class HostileServer {
 public:
  enum class Mode {
    kGarbage,        // reply: bytes that are not a frame
    kTruncated,      // reply: valid header, half the promised payload, close
    kOversized,      // reply: header promising > kMaxPayload
    kMidDisconnect,  // reply: nothing; close as soon as a request arrives
    kSilent,         // accept, read, never answer
    kCanned,         // reply: a well-formed kUpdateReply with canned payload
  };

  explicit HostileServer(Mode mode, Bytes canned = {})
      : mode_(mode), canned_(std::move(canned)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 16) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return;
    }
    socklen_t alen = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }

  ~HostileServer() {
    stop_.store(true);
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (thread_.joinable()) thread_.join();
  }

  std::uint16_t port() const { return port_; }

 private:
  void serve() {
    while (!stop_.load()) {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;  // listener closed: shutting down
      handle(fd);
      ::close(fd);
    }
  }

  void handle(int fd) {
    // Read one request frame (close early for the disconnect mode).
    FrameReader reader(kMaxPayload);
    std::uint8_t buf[4096];
    while (!reader.broken()) {
      if (reader.next().has_value()) break;
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) return;
      reader.feed(ByteSpan(buf, size_t(n)));
      if (mode_ == Mode::kMidDisconnect) return;  // hang up on first bytes
    }
    Bytes reply;
    switch (mode_) {
      case Mode::kGarbage:
        reply = to_bytes("%%%% definitely not a frame %%%%");
        break;
      case Mode::kTruncated: {
        Bytes full = encode_frame(FrameType::kUpdateReply, Bytes(64, 0x5a));
        reply.assign(full.begin(), full.begin() + long(kHeaderBytes + 16));
        break;
      }
      case Mode::kOversized: {
        reply = encode_frame(FrameType::kUpdateReply, {});
        reply[6] = 0xff;  // promise ~4 GiB
        break;
      }
      case Mode::kSilent: {
        // Answer nothing; hold the socket open until the peer gives up.
        pollfd p{fd, POLLIN, 0};
        ::poll(&p, 1, 3000);
        return;
      }
      case Mode::kMidDisconnect:
        return;
      case Mode::kCanned:
        reply = encode_frame(FrameType::kUpdateReply, canned_);
        break;
    }
    (void)!::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
  }

  Mode mode_;
  Bytes canned_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// The tentpole acceptance test: the UNCHANGED Byzantine trust gate —
// parse, tag check, pairing check, health-scored failover — pointed at
// real sockets. Three hostile peers and one honest daemon; the fetcher
// must converge on the genuine update, bit for bit, with zero forged
// acceptances, exactly as it does over the simnet.
class SocketFetcherTest : public ::testing::Test {
 protected:
  SocketFetcherTest()
      : params_(params::load("tre-toy-96")),
        scheme_(params_),
        rng_(to_bytes("socket-fetcher-rng")),
        server_(scheme_.server_keygen(rng_)) {}

  core::KeyUpdate update(const std::string& tag) {
    return scheme_.issue_update(server_, tag);
  }

  std::shared_ptr<Store> store_with(const core::KeyUpdate& upd) {
    auto s = std::make_shared<Store>();
    s->set_server_key("tre-toy-96", server_.pub.to_bytes());
    auto r = s->put(upd.tag, upd.to_bytes());
    if (!r.ok()) throw Error("store_with: put failed");
    return s;
  }

  std::shared_ptr<const params::GdhParams> params_;
  core::TreScheme scheme_;
  hashing::HmacDrbg rng_;
  core::ServerKeyPair server_;
};

TEST_F(SocketFetcherTest, SingleHonestDaemonAmongHostileSocketsSuffices) {
  core::KeyUpdate genuine = update("T-release");
  core::KeyUpdate stale = update("T-stale");  // relabel ammunition

  // Bit-flip the genuine wire: parses-then-fails or fails-to-parse,
  // depending on where the flip lands — either way, never accepted.
  Bytes corrupt = genuine.to_bytes();
  corrupt[corrupt.size() / 2] ^= 0x40;

  HostileServer garbage(HostileServer::Mode::kGarbage);
  HostileServer relabel(HostileServer::Mode::kCanned, stale.to_bytes());
  HostileServer corruptor(HostileServer::Mode::kCanned, corrupt);
  auto store = store_with(genuine);
  Daemon honest(store, {});
  std::thread honest_thread([&] { honest.run(); });

  // Honest LAST in preference order: the fetcher has to fail over to it.
  client::SocketTransport transport(
      {{"127.0.0.1", garbage.port()},
       {"127.0.0.1", relabel.port()},
       {"127.0.0.1", corruptor.port()},
       {"127.0.0.1", honest.port()}},
      500);

  client::FetcherConfig cfg;
  cfg.failover_after = 2;
  cfg.attempts_per_tag = 32;
  server::Timeline timeline(0);
  client::UpdateFetcher fetcher(scheme_, server_.pub, transport, timeline,
                                {0, 1, 2, 3}, to_bytes("socket-jitter"), cfg);

  std::optional<client::FetchResult> got;
  fetcher.fetch_verified({genuine.tag},
                         [&](const client::FetchResult& r) { got = r; });
  while (fetcher.busy()) timeline.advance_by(1);

  honest.stop();
  honest_thread.join();

  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(scheme_.verify_update(server_.pub, got->update));
  EXPECT_EQ(got->update, genuine);  // bit-exact: the genuine signature
  EXPECT_GT(got->stats.total_rejected() + got->stats.timeouts, 0u);
  EXPECT_GT(got->stats.failovers, 0u);
  // The honest endpoint ends healthier than every hostile one.
  EXPECT_GT(fetcher.health(3), fetcher.health(0));
  EXPECT_GT(fetcher.health(3), fetcher.health(1));
  EXPECT_GT(fetcher.health(3), fetcher.health(2));
}

TEST_F(SocketFetcherTest, AllHostileMeansFailureNeverForgery) {
  core::KeyUpdate genuine = update("T-release");
  core::KeyUpdate stale = update("T-stale");
  Bytes corrupt = genuine.to_bytes();
  corrupt[3] ^= 0x01;

  HostileServer garbage(HostileServer::Mode::kGarbage);
  HostileServer truncated(HostileServer::Mode::kTruncated);
  HostileServer oversized(HostileServer::Mode::kOversized);
  HostileServer disconnect(HostileServer::Mode::kMidDisconnect);
  HostileServer relabel(HostileServer::Mode::kCanned, stale.to_bytes());
  HostileServer corruptor(HostileServer::Mode::kCanned, corrupt);

  client::SocketTransport transport({{"127.0.0.1", garbage.port()},
                                     {"127.0.0.1", truncated.port()},
                                     {"127.0.0.1", oversized.port()},
                                     {"127.0.0.1", disconnect.port()},
                                     {"127.0.0.1", relabel.port()},
                                     {"127.0.0.1", corruptor.port()}},
                                    300);

  client::FetcherConfig cfg;
  cfg.failover_after = 1;
  cfg.attempts_per_tag = 18;  // three laps over six hostile peers
  server::Timeline timeline(0);
  client::UpdateFetcher fetcher(scheme_, server_.pub, transport, timeline,
                                {0, 1, 2, 3, 4, 5}, to_bytes("hostile-only"),
                                cfg);

  bool accepted = false;
  std::optional<client::FetchStats> failure;
  fetcher.fetch_verified({genuine.tag},
                         [&](const client::FetchResult&) { accepted = true; },
                         [&](const client::FetchStats& s) { failure = s; });
  while (fetcher.busy()) timeline.advance_by(1);

  EXPECT_FALSE(accepted);  // zero forged accepts, full stop
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->attempts, 18u);
  // Frame-level pathologies (garbage/truncated/oversized/disconnect)
  // surface as timeouts — the transport refuses to deliver damaged
  // frames; payload-level hostility surfaces as typed rejections.
  EXPECT_GT(failure->timeouts, 0u);
  EXPECT_GT(failure->rejected_tag + failure->rejected_parse +
                failure->rejected_sig,
            0u);
}

TEST_F(SocketFetcherTest, RangeCatchUpServesVerifiableHistory) {
  // A catch-up client replays the archive through kGetRange and verifies
  // every update it receives — the daemon is still just a byte shuffler.
  auto store = std::make_shared<Store>();
  store->set_server_key("tre-toy-96", server_.pub.to_bytes());
  std::vector<core::KeyUpdate> history;
  for (int i = 0; i < 5; ++i) {
    history.push_back(update("T" + std::to_string(i)));
    ASSERT_TRUE(store->put(history.back().tag, history.back().to_bytes()).ok());
  }
  Daemon d(store, {});
  std::thread th([&] { d.run(); });
  client::SocketTransport t({{"127.0.0.1", d.port()}});

  auto reply = t.get_range(0, 0, 100);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->total, 5u);
  ASSERT_EQ(reply->updates.size(), 5u);
  for (size_t i = 0; i < reply->updates.size(); ++i) {
    auto parsed = wire::try_parse<core::KeyUpdate>(*params_, reply->updates[i]);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(scheme_.verify_update(server_.pub, *parsed));
    EXPECT_EQ(*parsed, history[i]);
  }
  d.stop();
  th.join();
}

TEST_F(SocketFetcherTest, BatchedRangeCatchUpDropsForgedHistory) {
  // The fetcher-side catch-up path: one kGetRange page, parsed and then
  // RLC-batch-verified in one shot. The store (a hostile mirror's view)
  // hides a relabeled update and a signature substitution mid-history;
  // bisection must attribute exactly those two and surface the rest.
  auto store = std::make_shared<Store>();
  store->set_server_key("tre-toy-96", server_.pub.to_bytes());
  std::vector<core::KeyUpdate> history;
  for (int i = 0; i < 8; ++i) history.push_back(
      update(std::string("T").append(std::to_string(i))));

  core::KeyUpdate relabeled = history[2];
  relabeled.tag = "T-relabeled";  // honest sig, foreign tag
  core::KeyUpdate substituted = history[5];
  substituted.sig = history[6].sig;  // wrong tag's honest sig
  for (int i = 0; i < 8; ++i) {
    const core::KeyUpdate& u =
        i == 2 ? relabeled : (i == 5 ? substituted : history[i]);
    ASSERT_TRUE(store->put(u.tag, u.to_bytes()).ok());
  }

  Daemon d(store, {});
  std::thread th([&] { d.run(); });
  client::SocketTransport t({{"127.0.0.1", d.port()}});
  server::Timeline timeline(0);
  client::UpdateFetcher fetcher(scheme_, server_.pub, t, timeline, {0},
                                to_bytes("catchup-jitter"), {});

  auto page = fetcher.fetch_range_verified(0, 0, 100);
  ASSERT_TRUE(page.has_value());
  EXPECT_EQ(page->total, 8u);
  EXPECT_EQ(page->served, 8u);
  EXPECT_EQ(page->rejected_parse, 0u);
  EXPECT_EQ(page->rejected_sig, 2u);  // exactly the two planted items
  ASSERT_EQ(page->updates.size(), 6u);
  for (const core::KeyUpdate& u : page->updates) {
    EXPECT_TRUE(scheme_.verify_update(server_.pub, u));  // zero forged accepts
    EXPECT_NE(u.tag, relabeled.tag);
    EXPECT_NE(u.tag, substituted.tag);
  }
  // Forged items in the page demote the mirror like any failed attempt.
  EXPECT_LT(fetcher.health(0), 0);

  // Paged catch-up sees the same world: three pages of ≤3, same rejects.
  size_t verified = 0, dropped = 0;
  for (std::uint64_t pos = 0; pos < 8;) {
    auto chunk = fetcher.fetch_range_verified(0, pos, 3);
    ASSERT_TRUE(chunk.has_value());
    ASSERT_GT(chunk->served, 0u);
    verified += chunk->updates.size();
    dropped += chunk->rejected_sig;
    pos += chunk->served;
  }
  EXPECT_EQ(verified, 6u);
  EXPECT_EQ(dropped, 2u);

  d.stop();
  th.join();
}

}  // namespace
}  // namespace tre::daemon
