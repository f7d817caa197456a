// §5.2 ID-TRE scheme tests: one authority and the split-authority
// variant, on the TRE core's seal/open path.
#include "idtre/idtre.h"

#include <gtest/gtest.h>

#include "hashing/drbg.h"
#include "obs/metrics.h"

namespace tre::idtre {
namespace {

constexpr const char* kTag = "2005-06-06T09:00:00Z";
constexpr const char* kId = "alice@example.org";

class IdTreTest : public ::testing::Test {
 protected:
  IdTreTest()
      : scheme_(params::load("tre-toy-96")),
        rng_(to_bytes("idtre-tests")),
        authority_(scheme_.setup(rng_)),
        alice_(scheme_.extract(authority_, kId)) {}

  SealedCiphertext seal(ByteSpan msg, std::string_view id, Mode mode = Mode::kBasic) {
    return scheme_.seal(mode, msg, id, authority_.pub, kTag, rng_);
  }
  Bytes open(const SealedCiphertext& ct, const IdPrivateKey& key, const KeyUpdate& upd) {
    return *scheme_.open(ct, key, upd, authority_.pub);
  }

  IdTreScheme scheme_;
  hashing::HmacDrbg rng_;
  ServerKeyPair authority_;
  IdPrivateKey alice_;
};

TEST_F(IdTreTest, ExtractedKeyVerifies) {
  EXPECT_TRUE(scheme_.verify_update(authority_.pub, alice_));
  IdPrivateKey relabeled{"bob@example.org", alice_.sig};
  EXPECT_FALSE(scheme_.verify_update(authority_.pub, relabeled));
}

TEST_F(IdTreTest, RoundtripWithUpdate) {
  Bytes msg = to_bytes("identity-based timed release");
  const obs::Registry& reg = obs::Registry::global();
  const std::uint64_t before = reg.counter_value("core.pairings");
  SealedCiphertext ct = seal(msg, kId);
  KeyUpdate upd = scheme_.issue_update(authority_, kTag);
  Bytes out = open(ct, alice_, upd);
  // One pairing to seal and one to open, on the core's counter.
  EXPECT_EQ(reg.counter_value("core.pairings") - before, 2u);
  EXPECT_TRUE(scheme_.verify_update(authority_.pub, upd));
  EXPECT_EQ(out, msg);
}

TEST_F(IdTreTest, WrongIdentityCannotDecrypt) {
  Bytes msg = to_bytes("for alice only");
  SealedCiphertext ct = seal(msg, kId);
  KeyUpdate upd = scheme_.issue_update(authority_, kTag);
  IdPrivateKey bob = scheme_.extract(authority_, "bob@example.org");
  EXPECT_NE(open(ct, bob, upd), msg);
}

TEST_F(IdTreTest, WrongUpdateCannotDecrypt) {
  Bytes msg = to_bytes("not yet");
  SealedCiphertext ct = seal(msg, kId);
  KeyUpdate early = scheme_.issue_update(authority_, "2005-06-06T08:59:59Z");
  EXPECT_NE(open(ct, alice_, early), msg);
}

TEST_F(IdTreTest, UpdateSharedAcrossAllIdentities) {
  // One broadcast serves every receiver (the scalability property ID-TRE
  // retains).
  Bytes m1 = to_bytes("to alice");
  Bytes m2 = to_bytes("to bob");
  SealedCiphertext c1 = seal(m1, kId);
  SealedCiphertext c2 = seal(m2, "bob@example.org");
  KeyUpdate upd = scheme_.issue_update(authority_, kTag);
  IdPrivateKey bob = scheme_.extract(authority_, "bob@example.org");
  EXPECT_EQ(open(c1, alice_, upd), m1);
  EXPECT_EQ(open(c2, bob, upd), m2);
}

TEST_F(IdTreTest, KeyEscrowIsInherent) {
  // The authority can decrypt any message by extracting the key itself —
  // the paper's §5.2 caveat, and the reason TRE exists.
  Bytes msg = to_bytes("the server reads this");
  SealedCiphertext ct = seal(msg, kId);
  KeyUpdate upd = scheme_.issue_update(authority_, kTag);
  IdPrivateKey self_extracted = scheme_.extract(authority_, kId);
  EXPECT_EQ(open(ct, self_extracted, upd), msg);
}

TEST_F(IdTreTest, FoRoundtripAndTamperRejection) {
  Bytes msg = to_bytes("cca secure");
  SealedCiphertext ct = seal(msg, kId, Mode::kFo);
  KeyUpdate upd = scheme_.issue_update(authority_, kTag);
  auto out = scheme_.open(ct, alice_, upd, authority_.pub);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, msg);

  std::get<core::FoCiphertext>(ct.body).c_msg[0] ^= 1;
  EXPECT_FALSE(scheme_.open(ct, alice_, upd, authority_.pub).has_value());
}

TEST_F(IdTreTest, ReactRoundtripAndTamperRejection) {
  Bytes msg = to_bytes("react too");
  SealedCiphertext ct = seal(msg, kId, Mode::kReact);
  KeyUpdate upd = scheme_.issue_update(authority_, kTag);
  auto out = scheme_.open(ct, alice_, upd, authority_.pub);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, msg);

  std::get<core::ReactCiphertext>(ct.body).c_msg[0] ^= 1;
  EXPECT_FALSE(scheme_.open(ct, alice_, upd, authority_.pub).has_value());
}

TEST_F(IdTreTest, InfinityAuthorityKeyRejected) {
  // sG = O parses from the wire and would seal under K = 1, which anyone
  // can read; either overload must refuse it.
  const params::GdhParams& p = scheme_.params();
  ServerPublicKey blank{p.base, ec::G1Point::infinity(p.ctx())};
  EXPECT_THROW(scheme_.seal(Mode::kBasic, to_bytes("m"), kId, blank, kTag, rng_), Error);
  EXPECT_THROW(
      scheme_.seal(Mode::kBasic, to_bytes("m"), kId, blank, blank, kTag, rng_), Error);
}

TEST_F(IdTreTest, MessageSizeSweep) {
  KeyUpdate upd = scheme_.issue_update(authority_, kTag);
  for (size_t n : {0u, 1u, 64u, 4096u}) {
    Bytes m = rng_.bytes(n);
    EXPECT_EQ(open(seal(m, kId), alice_, upd), m) << n;
  }
}

// --- Split-authority variant (§5.2, separate TA and time server) ---------------

class SplitIdTreTest : public ::testing::Test {
 protected:
  SplitIdTreTest()
      : scheme_(params::load("tre-toy-96")),
        rng_(to_bytes("split-idtre-tests")),
        ta_(scheme_.authority_keygen(rng_)),
        ts_(scheme_.authority_keygen(rng_)),
        alice_(scheme_.extract(ta_, kId)) {}

  SealedCiphertext seal(ByteSpan msg, const ServerKeyPair& ta,
                        Mode mode = Mode::kBasic) {
    return scheme_.seal(mode, msg, kId, ta.pub, ts_.pub, kTag, rng_);
  }
  Bytes open(const SealedCiphertext& ct, const IdPrivateKey& key, const KeyUpdate& upd) {
    return *scheme_.open(ct, key, upd, ts_.pub);
  }

  IdTreScheme scheme_;
  hashing::HmacDrbg rng_;
  ServerKeyPair ta_;  // identity authority
  ServerKeyPair ts_;  // time server
  IdPrivateKey alice_;
};

TEST_F(SplitIdTreTest, RoundtripNeedsBothAuthorities) {
  Bytes msg = to_bytes("two masters");
  KeyUpdate upd = scheme_.issue_update(ts_, kTag);
  EXPECT_TRUE(scheme_.verify_update(ta_.pub, alice_));
  EXPECT_TRUE(scheme_.verify_update(ts_.pub, upd));
  EXPECT_EQ(open(seal(msg, ta_), alice_, upd), msg);
  // Every core flavour runs on the split session value too.
  for (Mode mode : {Mode::kFo, Mode::kReact}) {
    auto out = scheme_.open(seal(msg, ta_, mode), alice_, upd, ts_.pub);
    ASSERT_TRUE(out.has_value()) << core::mode_name(mode);
    EXPECT_EQ(*out, msg);
  }
}

TEST_F(SplitIdTreTest, TimeServerAloneCannotDecrypt) {
  // The always-online party holds s2 only; extracting the identity key
  // with the WRONG master yields garbage — escrow is confined to the
  // offline TA.
  Bytes msg = to_bytes("hidden from the time server");
  SealedCiphertext ct = seal(msg, ta_);
  KeyUpdate upd = scheme_.issue_update(ts_, kTag);
  IdPrivateKey ts_forged = scheme_.extract(ts_, kId);  // uses s2, not s1
  EXPECT_NE(open(ct, ts_forged, upd), msg);
}

TEST_F(SplitIdTreTest, WrongIdentityOrUpdateFails) {
  Bytes msg = to_bytes("m");
  SealedCiphertext ct = seal(msg, ta_);
  KeyUpdate upd = scheme_.issue_update(ts_, kTag);
  IdPrivateKey bob = scheme_.extract(ta_, "bob@example.org");
  EXPECT_NE(open(ct, bob, upd), msg);
  KeyUpdate early = scheme_.issue_update(ts_, "1999-01-01");
  EXPECT_NE(open(ct, alice_, early), msg);
}

TEST_F(SplitIdTreTest, SingleAuthoritySpecialCaseMatchesIdTre) {
  // With TA == TS the scheme degenerates to §5.2 exactly: the combined
  // decryption key is s·(H1(ID) + H1(T)), and both overloads reach the
  // same session value, so one seed gives one ciphertext.
  Bytes msg = to_bytes("degenerate");
  hashing::HmacDrbg split_rng(to_bytes("degenerate"));
  hashing::HmacDrbg single_rng(to_bytes("degenerate"));
  SealedCiphertext split =
      scheme_.seal(Mode::kBasic, msg, kId, ta_.pub, ta_.pub, kTag, split_rng);
  SealedCiphertext single =
      scheme_.seal(Mode::kBasic, msg, kId, ta_.pub, kTag, single_rng);
  EXPECT_EQ(split.to_bytes(), single.to_bytes());
  KeyUpdate upd = scheme_.issue_update(ta_, kTag);
  EXPECT_EQ(*scheme_.open(split, alice_, upd, ta_.pub), msg);
}

TEST_F(SplitIdTreTest, RejectsForeignGenerators) {
  // Authorities must share the system generator for rG to serve both.
  ServerKeyPair rogue = scheme_.setup(rng_);  // random generator
  EXPECT_THROW(scheme_.seal(Mode::kBasic, to_bytes("m"), kId, rogue.pub, ts_.pub, kTag,
                            rng_),
               Error);
}

}  // namespace
}  // namespace tre::idtre
