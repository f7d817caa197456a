// The unified seal/open API (core::Mode + SealedCiphertext): roundtrips
// in every flavour, the 1-byte mode header wire format over each
// flavour's own encoding, the tamper matrix, and agreement of the three
// open routes.
#include <gtest/gtest.h>

#include <cstring>
#include <variant>

#include "core/tre.h"
#include "hashing/drbg.h"
#include "obs/metrics.h"

namespace tre::core {
namespace {

constexpr Mode kAllModes[] = {Mode::kBasic, Mode::kFo, Mode::kReact};

class SealOpen : public ::testing::Test {
 protected:
  SealOpen()
      : scheme_(params::load("tre-toy-96")),
        rng_(to_bytes("seal-tests")),
        server_(scheme_.server_keygen(rng_)),
        user_(scheme_.user_keygen(server_.pub, rng_)),
        update_(scheme_.issue_update(server_, "T")) {}

  TreScheme scheme_;
  hashing::HmacDrbg rng_;
  ServerKeyPair server_;
  UserKeyPair user_;
  KeyUpdate update_;
};

TEST_F(SealOpen, RoundTripEveryMode) {
  Bytes msg = to_bytes("release at T");
  for (Mode mode : kAllModes) {
    SealedCiphertext sc = scheme_.seal(mode, msg, user_.pub, server_.pub, "T", rng_);
    EXPECT_EQ(sc.mode(), mode);
    auto out = scheme_.open(sc, user_.a, update_, server_.pub);
    ASSERT_TRUE(out.has_value()) << mode_name(mode);
    EXPECT_EQ(*out, msg) << mode_name(mode);
  }
}

TEST_F(SealOpen, ModeNames) {
  EXPECT_STREQ(mode_name(Mode::kBasic), "basic");
  EXPECT_STREQ(mode_name(Mode::kFo), "fo");
  EXPECT_STREQ(mode_name(Mode::kReact), "react");
}

TEST_F(SealOpen, SealedWireIsModeByteThenFlavourEncoding) {
  // Same message, same keys, same DRBG seed: seal() is deterministic in
  // its randomness, and the sealed wire is the 1-byte mode header + the
  // flavour's own encoding (what tre_cli's per-flavour file kinds store).
  Bytes msg = to_bytes("determinism check");
  auto expect_header_plus_body = [&](const SealedCiphertext& sc, const Bytes& body,
                                     std::uint8_t mode_byte) {
    Bytes wire = sc.to_bytes();
    ASSERT_FALSE(wire.empty());
    EXPECT_EQ(wire[0], mode_byte);
    EXPECT_EQ(Bytes(wire.begin() + 1, wire.end()), body);
  };

  {
    hashing::HmacDrbg a(to_bytes("det-basic")), b(to_bytes("det-basic"));
    Bytes body = std::get<Ciphertext>(
        scheme_.seal(Mode::kBasic, msg, user_.pub, server_.pub, "T", a).body).to_bytes();
    SealedCiphertext sc = scheme_.seal(Mode::kBasic, msg, user_.pub, server_.pub, "T", b);
    EXPECT_EQ(std::get<Ciphertext>(sc.body).to_bytes(), body);
    expect_header_plus_body(sc, body, 1);
  }
  {
    hashing::HmacDrbg a(to_bytes("det-fo")), b(to_bytes("det-fo"));
    Bytes body = std::get<FoCiphertext>(
        scheme_.seal(Mode::kFo, msg, user_.pub, server_.pub, "T", a).body).to_bytes();
    SealedCiphertext sc = scheme_.seal(Mode::kFo, msg, user_.pub, server_.pub, "T", b);
    EXPECT_EQ(std::get<FoCiphertext>(sc.body).to_bytes(), body);
    expect_header_plus_body(sc, body, 2);
  }
  {
    hashing::HmacDrbg a(to_bytes("det-react")), b(to_bytes("det-react"));
    Bytes body = std::get<ReactCiphertext>(
        scheme_.seal(Mode::kReact, msg, user_.pub, server_.pub, "T", a).body).to_bytes();
    SealedCiphertext sc = scheme_.seal(Mode::kReact, msg, user_.pub, server_.pub, "T", b);
    EXPECT_EQ(std::get<ReactCiphertext>(sc.body).to_bytes(), body);
    expect_header_plus_body(sc, body, 3);
  }
}

TEST_F(SealOpen, WireRoundTripEveryMode) {
  Bytes msg = to_bytes("wire");
  for (Mode mode : kAllModes) {
    SealedCiphertext sc = scheme_.seal(mode, msg, user_.pub, server_.pub, "T", rng_);
    Bytes wire = sc.to_bytes();
    SealedCiphertext parsed = SealedCiphertext::from_bytes(scheme_.params(), wire);
    EXPECT_EQ(parsed.mode(), mode);
    EXPECT_EQ(parsed.to_bytes(), wire);
    auto out = scheme_.open(parsed, user_.a, update_, server_.pub);
    ASSERT_TRUE(out.has_value()) << mode_name(mode);
    EXPECT_EQ(*out, msg);
  }
}

TEST_F(SealOpen, MalformedWireThrowsOrRefuses) {
  EXPECT_THROW((void)SealedCiphertext::from_bytes(scheme_.params(), Bytes{}), Error);
  EXPECT_FALSE(wire::try_parse<SealedCiphertext>(scheme_.params(), Bytes{}));
  Bytes unknown_mode = {0x07, 0x01, 0x02};
  EXPECT_THROW((void)SealedCiphertext::from_bytes(scheme_.params(), unknown_mode), Error);
  EXPECT_FALSE(wire::try_parse<SealedCiphertext>(scheme_.params(), unknown_mode));
}

TEST_F(SealOpen, TamperMatrix) {
  // Wrong key, wrong update, flipped payload byte: the CCA flavours must
  // refuse; Basic (CPA) must yield NOT-the-plaintext rather than crash.
  Bytes msg = to_bytes("tamper matrix: a message long enough to matter");
  UserKeyPair other_user = scheme_.user_keygen(server_.pub, rng_);
  KeyUpdate wrong_update = scheme_.issue_update(server_, "not-T");

  for (Mode mode : kAllModes) {
    SealedCiphertext sc = scheme_.seal(mode, msg, user_.pub, server_.pub, "T", rng_);

    auto expect_rejected = [&](const std::optional<Bytes>& out, const char* what) {
      if (mode == Mode::kBasic) {
        // No integrity tag in the CPA flavour: garbage, never the message.
        ASSERT_TRUE(out.has_value()) << what;
        EXPECT_NE(*out, msg) << mode_name(mode) << ": " << what;
      } else {
        EXPECT_FALSE(out.has_value()) << mode_name(mode) << ": " << what;
      }
    };

    expect_rejected(scheme_.open(sc, other_user.a, update_, server_.pub), "wrong key");
    expect_rejected(scheme_.open(sc, user_.a, wrong_update, server_.pub), "wrong update");

    Bytes wire = sc.to_bytes();
    wire[wire.size() / 2] ^= 0x40;
    if (auto parsed = wire::try_parse<SealedCiphertext>(scheme_.params(), wire)) {
      auto out = scheme_.open(*parsed, user_.a, update_, server_.pub);
      if (out && mode != Mode::kBasic) {
        EXPECT_NE(*out, msg) << mode_name(mode) << ": flipped byte decrypted cleanly";
      }
    }
  }
}

TEST_F(SealOpen, UnknownModeInSealThrows) {
  Bytes msg = to_bytes("m");
  EXPECT_THROW(
      (void)scheme_.seal(static_cast<Mode>(9), msg, user_.pub, server_.pub, "T", rng_),
      Error);
}

TEST_F(SealOpen, KeyCheckSkipStillRoundTrips) {
  Bytes msg = to_bytes("pre-verified key");
  SealedCiphertext sc = scheme_.seal(Mode::kFo, msg, user_.pub, server_.pub, "T", rng_,
                                     KeyCheck::kSkip);
  auto out = scheme_.open(sc, user_.a, update_, server_.pub);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, msg);
}

// --- open_batch --------------------------------------------------------------

TEST_F(SealOpen, OpenBatchMatchesPerItemOpen) {
  // Three ciphertexts per mode, one receiver, one tag: the batch path
  // (shared epoch key, cached Miller lines, folded FO re-encryption
  // check) must produce exactly what per-item open() produces.
  std::vector<SealedCiphertext> cts;
  std::vector<Bytes> msgs;
  for (Mode mode : kAllModes) {
    for (int i = 0; i < 3; ++i) {
      msgs.push_back(to_bytes("batch msg " + std::to_string(msgs.size())));
      cts.push_back(scheme_.seal(mode, msgs.back(), user_.pub, server_.pub, "T", rng_));
    }
  }

  auto batch = scheme_.open_batch(cts, user_.a, update_, server_.pub, rng_);
  ASSERT_EQ(batch.size(), cts.size());
  for (size_t i = 0; i < cts.size(); ++i) {
    auto single = scheme_.open(cts[i], user_.a, update_, server_.pub);
    ASSERT_TRUE(single.has_value()) << "item " << i;
    ASSERT_TRUE(batch[i].has_value()) << "item " << i;
    EXPECT_EQ(*batch[i], *single) << "item " << i;
    EXPECT_EQ(*batch[i], msgs[i]) << "item " << i;
  }
}

TEST_F(SealOpen, OpenBatchEmptyAndSingleton) {
  EXPECT_TRUE(
      scheme_.open_batch({}, user_.a, update_, server_.pub, rng_).empty());
  Bytes msg = to_bytes("lone");
  std::vector<SealedCiphertext> one = {
      scheme_.seal(Mode::kFo, msg, user_.pub, server_.pub, "T", rng_)};
  auto out = scheme_.open_batch(one, user_.a, update_, server_.pub, rng_);
  ASSERT_EQ(out.size(), 1u);
  ASSERT_TRUE(out[0].has_value());
  EXPECT_EQ(*out[0], msg);
}

TEST_F(SealOpen, OpenBatchAttributesTamperExactly) {
  // Tampered FO and REACT items fail closed in THEIR slots only; honest
  // siblings in the same batch still open. This is the bisection analogue
  // of the fetcher's Byzantine attribution, receiver-side.
  std::vector<SealedCiphertext> cts;
  std::vector<Bytes> msgs;
  for (int i = 0; i < 6; ++i) {
    Mode mode = (i % 2 == 0) ? Mode::kFo : Mode::kReact;
    msgs.push_back(to_bytes("attrib msg " + std::to_string(i)));
    cts.push_back(scheme_.seal(mode, msgs.back(), user_.pub, server_.pub, "T", rng_));
  }
  std::get<FoCiphertext>(cts[2].body).c_msg[0] ^= 0x01;  // tampered FO
  std::get<ReactCiphertext>(cts[3].body).mac[0] ^= 0x01; // tampered REACT

  auto out = scheme_.open_batch(cts, user_.a, update_, server_.pub, rng_);
  ASSERT_EQ(out.size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    if (i == 2 || i == 3) {
      EXPECT_FALSE(out[i].has_value()) << "tampered item " << i;
    } else {
      ASSERT_TRUE(out[i].has_value()) << "honest item " << i;
      EXPECT_EQ(*out[i], msgs[i]) << "honest item " << i;
    }
  }
}

TEST_F(SealOpen, SealAndOpenProbesCount) {
  obs::Registry& g = obs::Registry::global();
  std::uint64_t seals0 = g.counter_value("core.seals");
  std::uint64_t opens0 = g.counter_value("core.opens");
  Bytes msg = to_bytes("count me");
  SealedCiphertext sc = scheme_.seal(Mode::kBasic, msg, user_.pub, server_.pub, "T", rng_);
  (void)scheme_.open(sc, user_.a, update_, server_.pub);
  EXPECT_EQ(g.counter_value("core.seals") - seals0, obs::kEnabled ? 1u : 0u);
  EXPECT_EQ(g.counter_value("core.opens") - opens0, obs::kEnabled ? 1u : 0u);
}

}  // namespace
}  // namespace tre::core
