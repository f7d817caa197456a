// BLS12-381 parity with the 2005 curve: the SAME generic core must give
// the same guarantees on the modern backend — all three seal modes
// roundtrip, FO/REACT tamper rejection holds point-for-point, the
// non-throwing wire codecs shrug off a garbage corpus, bytes framed for
// one backend are cleanly rejected (nullopt, never a crash) by the
// other, and on both backends the three open routes agree. Reference
// pairings cost tens of ms each, so fixture state is built once per
// suite and every test is pairing-frugal.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "bls12/tre381.h"
#include "core/tre.h"
#include "hashing/drbg.h"
#include "hashing/kdf.h"
#include "obs/metrics.h"

namespace tre {
namespace {

using core::KeyCheck;
using core::Mode;

constexpr const char* kTag = "2030-01-01T00:00:00Z";
constexpr const char* kMsg = "parity across twenty years of curves";

class Tre381ParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hashing::HmacDrbg rng(to_bytes("tre381-parity"));
    scheme_ = new bls12::Tre381Scheme(bls12::make_tre381());
    server_ = new bls12::ServerKey381(scheme_->server_keygen(rng));
    user_ = new bls12::UserKey381(scheme_->user_keygen(server_->pub, rng));
    update_ = new bls12::Update381(scheme_->issue_update(*server_, kTag));
  }
  static void TearDownTestSuite() {
    delete update_;
    delete user_;
    delete server_;
    delete scheme_;
    update_ = nullptr;
    user_ = nullptr;
    server_ = nullptr;
    scheme_ = nullptr;
  }

  Tre381ParityTest() : rng_(to_bytes("tre381-parity-case")) {}

  static bls12::Tre381Scheme* scheme_;
  static bls12::ServerKey381* server_;
  static bls12::UserKey381* user_;
  static bls12::Update381* update_;
  hashing::HmacDrbg rng_;
};

bls12::Tre381Scheme* Tre381ParityTest::scheme_ = nullptr;
bls12::ServerKey381* Tre381ParityTest::server_ = nullptr;
bls12::UserKey381* Tre381ParityTest::user_ = nullptr;
bls12::Update381* Tre381ParityTest::update_ = nullptr;

TEST_F(Tre381ParityTest, SealOpenRoundtripsAllModes) {
  Bytes msg = to_bytes(kMsg);
  for (Mode mode : {Mode::kBasic, Mode::kFo, Mode::kReact}) {
    bls12::SealedCiphertext381 sc =
        scheme_->seal(mode, msg, user_->pub, server_->pub, kTag, rng_,
                      KeyCheck::kSkip);
    EXPECT_EQ(sc.mode(), mode);
    auto out = scheme_->open(sc, user_->a, *update_, server_->pub);
    ASSERT_TRUE(out.has_value()) << core::mode_name(mode);
    EXPECT_EQ(*out, msg) << core::mode_name(mode);
  }
}

TEST_F(Tre381ParityTest, WrongUpdateFailsTimeLock) {
  // The time lock itself: an update for a DIFFERENT instant must not
  // open an FO ciphertext (basic mode would return garbage bytes; the
  // CCA modes detect and reject).
  bls12::Update381 early = scheme_->issue_update(*server_, "2029-01-01T00:00:00Z");
  Bytes msg = to_bytes(kMsg);
  auto ct = scheme_->seal(Mode::kFo, msg, user_->pub, server_->pub, kTag, rng_,
                          KeyCheck::kSkip);
  EXPECT_FALSE(scheme_->open(ct, user_->a, early, server_->pub).has_value());
  ASSERT_TRUE(scheme_->open(ct, user_->a, *update_, server_->pub).has_value());
}

TEST_F(Tre381ParityTest, FoTamperMatrix) {
  Bytes msg = to_bytes(kMsg);
  auto ct = scheme_->seal(Mode::kFo, msg, user_->pub, server_->pub, kTag, rng_,
                          KeyCheck::kSkip);
  ASSERT_TRUE(scheme_->open(ct, user_->a, *update_, server_->pub).has_value());
  auto fo = [](bls12::SealedCiphertext381& sc) -> bls12::FoCiphertext381& {
    return std::get<bls12::FoCiphertext381>(sc.body);
  };

  {
    // Header point swapped for another ciphertext's header.
    auto other = scheme_->seal(Mode::kFo, msg, user_->pub, server_->pub, kTag, rng_,
                               KeyCheck::kSkip);
    auto tampered = ct;
    fo(tampered).u = fo(other).u;
    EXPECT_FALSE(scheme_->open(tampered, user_->a, *update_, server_->pub).has_value());
  }
  {
    auto tampered = ct;
    fo(tampered).c_sigma[0] ^= 0x01;
    EXPECT_FALSE(scheme_->open(tampered, user_->a, *update_, server_->pub).has_value());
  }
  {
    auto tampered = ct;
    fo(tampered).c_msg.back() ^= 0x80;
    EXPECT_FALSE(scheme_->open(tampered, user_->a, *update_, server_->pub).has_value());
  }
}

TEST_F(Tre381ParityTest, ReactTamperMatrix) {
  Bytes msg = to_bytes(kMsg);
  auto ct = scheme_->seal(Mode::kReact, msg, user_->pub, server_->pub, kTag, rng_,
                          KeyCheck::kSkip);
  ASSERT_TRUE(scheme_->open(ct, user_->a, *update_, server_->pub).has_value());

  for (int field = 0; field < 3; ++field) {
    auto tampered = ct;
    auto& body = std::get<bls12::ReactCiphertext381>(tampered.body);
    if (field == 0) {
      body.c_r[0] ^= 0x01;
    } else if (field == 1) {
      body.c_msg[0] ^= 0x01;
    } else {
      body.mac.back() ^= 0x01;
    }
    EXPECT_FALSE(scheme_->open(tampered, user_->a, *update_, server_->pub).has_value())
        << "field " << field;
  }
}

TEST_F(Tre381ParityTest, TryFromBytesGarbageCorpus) {
  const bls12::Bls12Ctx& ctx = scheme_->params();
  hashing::HmacDrbg noise(to_bytes("tre381-garbage"));
  bls12::Update381 upd = *update_;
  Bytes good_upd = upd.to_bytes();
  bls12::SealedCiphertext381 sc = scheme_->seal(Mode::kReact, to_bytes(kMsg),
                                               user_->pub, server_->pub, kTag,
                                               rng_, KeyCheck::kSkip);
  Bytes good_sc = sc.to_bytes();

  // Empty, truncations, trailing junk, bit-flipped point bytes, and
  // same-length noise: every one must come back nullopt, never throw.
  EXPECT_FALSE(wire::try_parse<bls12::Update381>(ctx, Bytes{}).has_value());
  EXPECT_FALSE(wire::try_parse<bls12::SealedCiphertext381>(ctx, Bytes{}).has_value());
  for (size_t cut : {size_t{1}, good_upd.size() / 2, good_upd.size() - 1}) {
    Bytes truncated(good_upd.begin(), good_upd.begin() + cut);
    EXPECT_FALSE(wire::try_parse<bls12::Update381>(ctx, truncated).has_value())
        << "cut " << cut;
  }
  {
    Bytes trailing = good_upd;
    trailing.push_back(0x00);
    EXPECT_FALSE(wire::try_parse<bls12::Update381>(ctx, trailing).has_value());
  }
  {
    // Corrupt the compressed G1 x-coordinate: off-curve / bad-prefix
    // encodings die inside point decoding.
    Bytes flipped = good_upd;
    flipped.back() ^= 0x01;
    flipped[flipped.size() - bls12::Bls381Backend::gu_wire_bytes(ctx)] ^= 0xff;
    EXPECT_FALSE(wire::try_parse<bls12::Update381>(ctx, flipped).has_value());
  }
  for (int i = 0; i < 4; ++i) {
    Bytes junk = noise.bytes(good_upd.size());
    EXPECT_FALSE(wire::try_parse<bls12::Update381>(ctx, junk).has_value());
    Bytes junk_sc = noise.bytes(good_sc.size());
    EXPECT_FALSE(wire::try_parse<bls12::SealedCiphertext381>(ctx, junk_sc).has_value());
  }
  {
    Bytes bad_mode = good_sc;
    bad_mode[0] = 0x7f;  // unknown mode byte
    EXPECT_FALSE(wire::try_parse<bls12::SealedCiphertext381>(ctx, bad_mode).has_value());
  }

  // Sanity: the untampered encodings still parse.
  EXPECT_TRUE(wire::try_parse<bls12::Update381>(ctx, good_upd).has_value());
  EXPECT_TRUE(wire::try_parse<bls12::SealedCiphertext381>(ctx, good_sc).has_value());
}

TEST_F(Tre381ParityTest, CrossBackendBytesRejectedCleanly) {
  // A 381 artifact fed to a type-1 context (and vice versa) must fail at
  // the wire codec — nullopt, no exception, no group-arithmetic crash.
  auto toy_params = params::load("tre-toy-96");
  core::TreScheme toy(toy_params);
  hashing::HmacDrbg rng(to_bytes("cross-backend"));
  core::ServerKeyPair toy_server = toy.server_keygen(rng);
  core::UserKeyPair toy_user = toy.user_keygen(toy_server.pub, rng);
  core::KeyUpdate toy_update = toy.issue_update(toy_server, kTag);

  const bls12::Bls12Ctx& ctx = scheme_->params();

  // 381 → type-1.
  EXPECT_FALSE(
      wire::try_parse<core::KeyUpdate>(*toy_params, update_->to_bytes()).has_value());
  bls12::SealedCiphertext381 sc381 = scheme_->seal(Mode::kFo, to_bytes(kMsg),
                                                  user_->pub, server_->pub, kTag,
                                                  rng_, KeyCheck::kSkip);
  EXPECT_FALSE(
      wire::try_parse<core::SealedCiphertext>(*toy_params, sc381.to_bytes()).has_value());

  // type-1 → 381.
  EXPECT_FALSE(
      wire::try_parse<bls12::Update381>(ctx, toy_update.to_bytes()).has_value());
  core::SealedCiphertext sc512 = toy.seal(Mode::kFo, to_bytes(kMsg), toy_user.pub,
                                          toy_server.pub, kTag, rng);
  EXPECT_FALSE(
      wire::try_parse<bls12::SealedCiphertext381>(ctx, sc512.to_bytes()).has_value());
}

TEST_F(Tre381ParityTest, SealMatchesUncachedPairingOracle) {
  // test_tre.cpp's oracle on the type-3 layout: seal(kBasic) draws r
  // first, so a replayed DRBG recovers it, and the equations are checked
  // with the context's uncached pairing and generic G_T power.
  const bls12::Bls12Ctx& ctx = scheme_->params();
  hashing::HmacDrbg rng_seal(to_bytes("session-key-oracle"));
  hashing::HmacDrbg rng_replay(to_bytes("session-key-oracle"));
  Bytes msg = to_bytes(kMsg);
  bls12::SealedCiphertext381 sc = scheme_->seal(
      Mode::kBasic, msg, user_->pub, server_->pub, kTag, rng_seal, KeyCheck::kSkip);
  const auto& ct = std::get<bls12::Ciphertext381>(sc.body);
  const core::Scalar r = ctx.random_scalar(rng_replay);

  EXPECT_TRUE(ctx.g2_eq(ct.u, ctx.g2_mul(server_->pub.g, r)));  // U = r·G
  // K = ê(H1(T), r·asG); V = M ⊕ H2(K).
  const bls12::G1Point381 h1t = ctx.hash_to_g1(to_bytes(kTag));
  const bls12::Gt381 k = ctx.pair(h1t, ctx.g2_mul(user_->pub.asg, r));
  EXPECT_EQ(ct.v, xor_bytes(msg, hashing::oracle_bytes("TRE-H2", ctx.gt_to_bytes(k),
                                                       msg.size())));
  // The receiver's side: ê(I_T, U)^a == K with I_T = s·H1(T).
  const bls12::G1Point381 i_t = ctx.g1_mul(h1t, server_->s);
  EXPECT_TRUE(ctx.gt_eq(ctx.gt_pow(ctx.pair(i_t, ct.u), user_->a), k));
}

TEST_F(Tre381ParityTest, EpochKeyDecryptsWithoutLongTermSecret) {
  Bytes msg = to_bytes(kMsg);
  auto ct = scheme_->seal(Mode::kBasic, msg, user_->pub, server_->pub, kTag, rng_,
                          KeyCheck::kSkip);
  bls12::EpochKey381 ek = scheme_->derive_epoch_key(user_->a, *update_);
  EXPECT_EQ(ek.tag, kTag);
  EXPECT_EQ(scheme_->open_with_epoch_key(ct, ek, server_->pub), msg);
}

// --- The three open routes, on both backends --------------------------------
// open() reaches K as ê(I_T, U)^a on the type-1 curve and as ê(a·I_T, U)
// on BLS12-381; open_with_epoch_key and open_batch pair with the §5.3.3
// epoch key a·I_T through its cached lines. Bilinearity makes the three K
// equal, so every flavour must open to the sealed plaintext on every
// route, and every route must reject the same tampering. Opening one
// REACT ciphertext with an epoch key is covered here only.

std::shared_ptr<const params::GdhParams> params_for(core::Tre512Backend) {
  return params::load("tre-toy-96");
}
std::shared_ptr<const bls12::Bls12Ctx> params_for(bls12::Bls381Backend) {
  return bls12::Bls12Ctx::get();
}

template <class B>
class OpenRoutesTest : public ::testing::Test {};

using BothBackends = ::testing::Types<core::Tre512Backend, bls12::Bls381Backend>;
TYPED_TEST_SUITE(OpenRoutesTest, BothBackends);

TYPED_TEST(OpenRoutesTest, AgreeOnEveryFlavourAndRejectTampering) {
  using B = TypeParam;
  using Sealed = core::BasicSealedCiphertext<B>;
  core::BasicTreScheme<B> scheme(params_for(B{}));
  hashing::HmacDrbg rng(to_bytes("open-routes"));
  const core::BasicServerKeyPair<B> server = scheme.server_keygen(rng);
  const core::BasicUserKeyPair<B> user = scheme.user_keygen(server.pub, rng);
  const core::BasicKeyUpdate<B> update = scheme.issue_update(server, kTag);
  const core::BasicEpochKey<B> epoch = scheme.derive_epoch_key(user.a, update);
  const Bytes msg = to_bytes(kMsg);

  auto routes = [&](const Sealed& sc) {
    return std::vector<std::optional<Bytes>>{
        scheme.open(sc, user.a, update, server.pub),
        scheme.open_with_epoch_key(sc, epoch, server.pub),
        scheme.open_batch(std::span<const Sealed>(&sc, 1), user.a, update, server.pub,
                          rng)[0]};
  };
  // The body fields after the header: FO's c_sigma and c_msg, REACT's
  // c_r, c_msg and mac.
  auto field = [](Sealed& sc, size_t f) -> Bytes& {
    if (auto* fo = std::get_if<core::BasicFoCiphertext<B>>(&sc.body)) {
      return f == 0 ? fo->c_sigma : fo->c_msg;
    }
    auto& react = std::get<core::BasicReactCiphertext<B>>(sc.body);
    return f == 0 ? react.c_r : f == 1 ? react.c_msg : react.mac;
  };

  for (Mode mode : {Mode::kBasic, Mode::kFo, Mode::kReact}) {
    const Sealed sc = scheme.seal(mode, msg, user.pub, server.pub, kTag, rng);
    for (const std::optional<Bytes>& out : routes(sc)) {
      ASSERT_TRUE(out.has_value()) << core::mode_name(mode);
      EXPECT_EQ(*out, msg) << core::mode_name(mode);
    }
    const size_t fields = mode == Mode::kFo ? 2 : mode == Mode::kReact ? 3 : 0;
    for (size_t f = 0; f < fields; ++f) {
      Sealed tampered = sc;
      field(tampered, f)[0] ^= 0x01;
      size_t route = 0;
      for (const std::optional<Bytes>& out : routes(tampered)) {
        EXPECT_FALSE(out.has_value())
            << core::mode_name(mode) << " field " << f << " route " << route;
        ++route;
      }
    }
  }
}

// --- Where each backend applies the per-message secret ---------------------
// BLS12-381 applies r and a on the G1 secret ladder before one pairing,
// outside the pair-base and lines caches; the type-1 curve raises the
// pairing to r or a in G_T, with seal's base pairing memoized per
// (receiver, tag). The epoch-key routes pair a·I_T once per item, through
// its cached Miller lines on the type-1 curve and uncached on BLS12-381,
// whose line engine prepares the fresh G2 side.

template <class B>
class SessionRouteTest : public ::testing::Test {};

TYPED_TEST_SUITE(SessionRouteTest, BothBackends);

TYPED_TEST(SessionRouteTest, SealAndOpenTakeTheBackendsRoute) {
  using B = TypeParam;
  core::BasicTreScheme<B> scheme(params_for(B{}));
  hashing::HmacDrbg rng(to_bytes("session-route"));
  const core::BasicServerKeyPair<B> server = scheme.server_keygen(rng);
  const core::BasicUserKeyPair<B> user = scheme.user_keygen(server.pub, rng);
  const std::string tag = "2031-07-01T00:00:00Z";  // fresh: sealed to nowhere else
  const core::BasicKeyUpdate<B> update = scheme.issue_update(server, tag);
  const Bytes msg = to_bytes(kMsg);

  // Deltas of these counters (under the backend's probe prefix) across
  // one call.
  using Deltas = std::vector<std::uint64_t>;
  const char* const kCounters[] = {"mul.varying_base",     "pairings",
                                   "cache.pair_bases.hit", "cache.pair_bases.miss",
                                   "cache.lines.hit",      "cache.lines.miss"};
  auto deltas = [&](auto&& call) {
    const obs::Registry& reg = obs::Registry::global();
    Deltas d;
    for (const char* name : kCounters) {
      d.push_back(reg.counter_value(std::string(B::kProbePrefix) + name));
    }
    call();
    for (size_t i = 0; i < d.size(); ++i) {
      d[i] = reg.counter_value(std::string(B::kProbePrefix) + kCounters[i]) - d[i];
    }
    return d;
  };
  auto seal = [&] {
    return scheme.seal(Mode::kBasic, msg, user.pub, server.pub, tag, rng,
                       KeyCheck::kSkip);
  };

  std::optional<core::BasicSealedCiphertext<B>> sc;
  std::optional<Bytes> out;
  const Deltas sealed = deltas([&] { sc.emplace(seal()); });
  const Deltas opened =
      deltas([&] { out = scheme.open(*sc, user.a, update, server.pub); });
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, msg);

  // The epoch-key routes: one item through open_with_epoch_key, then a
  // two-item open_batch, which derives the same epoch key itself.
  const core::BasicEpochKey<B> epoch = scheme.derive_epoch_key(user.a, update);
  const Deltas keyed =
      deltas([&] { out = scheme.open_with_epoch_key(*sc, epoch, server.pub); });
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, msg);
  const std::vector<core::BasicSealedCiphertext<B>> batch = {*sc, seal()};
  std::vector<std::optional<Bytes>> outs;
  const Deltas batched = deltas([&] {
    outs = scheme.open_batch(batch, user.a, update, server.pub, rng, 128, 1);
  });
  ASSERT_EQ(outs.size(), 2u);
  for (const std::optional<Bytes>& o : outs) {
    ASSERT_TRUE(o.has_value());
    EXPECT_EQ(*o, msg);
  }

  if constexpr (B::kSessionPowInGt) {
    // A power of the memoized pair base: the first seal to (receiver,
    // tag) misses, the second hits. open raises the pairing through the
    // update's cached lines. No secret ladder runs.
    EXPECT_EQ(sealed, (Deltas{0, 1, 0, 1, 0, 0}));
    EXPECT_EQ(deltas([&] { (void)seal(); }), (Deltas{0, 0, 1, 0, 0, 0}));
    EXPECT_EQ(opened, (Deltas{0, 1, 0, 0, 0, 1}));
    // The epoch key's lines miss once, then serve both batch items.
    EXPECT_EQ(keyed, (Deltas{0, 1, 0, 0, 0, 1}));
    EXPECT_EQ(batched, (Deltas{1, 2, 0, 0, 2, 0}));
  } else {
    // One ladder and one pairing each, and no cache traffic.
    EXPECT_EQ(sealed, (Deltas{1, 1, 0, 0, 0, 0}));
    EXPECT_EQ(opened, (Deltas{1, 1, 0, 0, 0, 0}));
    // One pairing per item and no lines-cache traffic.
    EXPECT_EQ(keyed, (Deltas{0, 1, 0, 0, 0, 0}));
    EXPECT_EQ(batched, (Deltas{1, 2, 0, 0, 0, 0}));
  }
}

// --- A rebound key's check counts every pairing ------------------------------
// The type-1 same-secret check is a cross pairing on top of the
// receiver-key check's two; the type-3 anchor a·G1gen does not depend on
// the server, so that check is an equality.

template <class B>
class ReboundKeyTest : public ::testing::Test {};

TYPED_TEST_SUITE(ReboundKeyTest, BothBackends);

TYPED_TEST(ReboundKeyTest, CheckCountsEveryPairing) {
  using B = TypeParam;
  core::BasicTreScheme<B> scheme(params_for(B{}));
  hashing::HmacDrbg rng(to_bytes("rebound-count"));
  const core::BasicServerKeyPair<B> old_server = scheme.server_keygen(rng);
  const core::BasicServerKeyPair<B> new_server = scheme.server_keygen(rng);
  const core::BasicUserKeyPair<B> user = scheme.user_keygen(old_server.pub, rng);
  const core::BasicUserPublicKey<B> rebound = scheme.rebind_user_key(user.a, new_server.pub);
  const std::string pairings = std::string(B::kProbePrefix) + "pairings";
  const std::uint64_t before = obs::Registry::global().counter_value(pairings);
  EXPECT_TRUE(scheme.verify_rebound_key(user.pub.ag, old_server.pub.g, new_server.pub,
                                        rebound));
  EXPECT_EQ(obs::Registry::global().counter_value(pairings) - before,
            B::kAnchorIsGh ? 4u : 2u);
}

}  // namespace
}  // namespace tre
