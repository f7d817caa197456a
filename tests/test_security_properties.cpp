// Executable documentation of the scheme's security properties — both
// the guarantees and the documented NON-guarantees the paper's §5
// discussion implies.
#include <gtest/gtest.h>

#include "core/policylock.h"
#include "core/tre.h"
#include "hashing/drbg.h"

namespace tre::core {
namespace {

constexpr const char* kTag = "2005-06-06T09:00:00Z";

class SecurityProperties : public ::testing::Test {
 protected:
  SecurityProperties()
      : scheme_(params::load("tre-toy-96")),
        rng_(to_bytes("security-tests")),
        server_(scheme_.server_keygen(rng_)),
        user_(scheme_.user_keygen(server_.pub, rng_)) {}

  TreScheme scheme_;
  hashing::HmacDrbg rng_;
  ServerKeyPair server_;
  UserKeyPair user_;
};

TEST_F(SecurityProperties, BasicSchemeIsMalleableByDesign) {
  // The §5.1 scheme is one-way/CPA only: XORing the body flips plaintext
  // bits predictably. This is exactly why the paper prescribes FO/REACT
  // for real use; the test pins the behaviour so nobody mistakes the
  // basic mode for authenticated encryption.
  Bytes msg = to_bytes("PAY 100");
  SealedCiphertext ct =
      scheme_.seal(Mode::kBasic, msg, user_.pub, server_.pub, kTag, rng_);
  Bytes delta = xor_bytes(to_bytes("PAY 100"), to_bytes("PAY 999"));
  xor_inplace(std::get<Ciphertext>(ct.body).v, delta);
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  EXPECT_EQ(scheme_.open(ct, user_.a, upd, server_.pub), to_bytes("PAY 999"));
}

TEST_F(SecurityProperties, FoDefeatsTheSameMauling) {
  Bytes msg = to_bytes("PAY 100");
  SealedCiphertext ct = scheme_.seal(Mode::kFo, msg, user_.pub, server_.pub, kTag, rng_);
  Bytes delta = xor_bytes(to_bytes("PAY 100"), to_bytes("PAY 999"));
  xor_inplace(std::get<FoCiphertext>(ct.body).c_msg, delta);
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  EXPECT_FALSE(scheme_.open(ct, user_.a, upd, server_.pub).has_value());
}

TEST_F(SecurityProperties, CiphertextRevealsNoPartyIdentifiers) {
  // User anonymity (§1, §3): the ciphertext bytes contain no receiver or
  // sender identifier — only a fresh group element and a masked body.
  // Structural check: two different receivers' ciphertexts for the same
  // message are format-identical and unlinkable without the keys.
  UserKeyPair other = scheme_.user_keygen(server_.pub, rng_);
  Bytes msg(64, 0x42);
  SealedCiphertext c1 =
      scheme_.seal(Mode::kBasic, msg, user_.pub, server_.pub, kTag, rng_);
  SealedCiphertext c2 =
      scheme_.seal(Mode::kBasic, msg, other.pub, server_.pub, kTag, rng_);
  EXPECT_EQ(c1.to_bytes().size(), c2.to_bytes().size());
  // Neither contains the receivers' public key bytes.
  Bytes pk1 = user_.pub.to_bytes();
  Bytes wire1 = c1.to_bytes();
  auto contains = [](const Bytes& hay, const Bytes& needle) {
    return std::search(hay.begin(), hay.end(), needle.begin() + 1,
                       needle.begin() + 16) != hay.end();
  };
  EXPECT_FALSE(contains(wire1, pk1));
}

TEST_F(SecurityProperties, UpdateRevealsOnlyTheTime) {
  // The update is (T, s·H1(T)): its bytes are the time string plus a
  // point that is a deterministic function of (s, T) — no user data can
  // be present because the server holds none (§3).
  KeyUpdate u1 = scheme_.issue_update(server_, kTag);
  KeyUpdate u2 = scheme_.issue_update(server_, kTag);
  EXPECT_EQ(u1.to_bytes(), u2.to_bytes());  // no per-receiver variation
}

TEST_F(SecurityProperties, ServerCannotDecryptWithoutUserSecret) {
  // §3's "highest possible privacy": unlike ID-TRE, the server holding s
  // and the update cannot open mail. Simulate the server's best effort:
  // it knows s, I_T, the ciphertext and both public keys.
  Bytes msg = to_bytes("private from the server too");
  SealedCiphertext sc =
      scheme_.seal(Mode::kBasic, msg, user_.pub, server_.pub, kTag, rng_);
  const Ciphertext& ct = std::get<Ciphertext>(sc.body);
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  // The server's decryption attempts with everything it has:
  // ê(U, I_T)^s and ê(U, I_T) — both miss the factor a.
  Gt k1 = pairing::pair(ct.u, upd.sig);
  Bytes try1 = xor_bytes(ct.v, scheme_.mask_h2(k1, ct.v.size()));
  Bytes try2 = xor_bytes(ct.v, scheme_.mask_h2(k1.pow(server_.s), ct.v.size()));
  EXPECT_NE(try1, msg);
  EXPECT_NE(try2, msg);
}

TEST_F(SecurityProperties, RogueGeneratorConcernIsDetectable) {
  // §5.1 point 6: a cheating server could pick G = H1(T*) hoping to
  // eavesdrop messages at T*. A sender can screen for this exact match.
  ec::G1Point suspicious = scheme_.hash_tag(kTag);
  ServerPublicKey rogue{suspicious, suspicious.mul(server_.s)};
  EXPECT_TRUE(rogue.g == scheme_.hash_tag(kTag));  // the sender's check
  EXPECT_FALSE(server_.pub.g == scheme_.hash_tag(kTag));  // honest keygen
}

TEST_F(SecurityProperties, RandomnessReuseAcrossTagsIsContained) {
  // The disjunctive lock reuses r across wraps; the masks differ because
  // the pairing values differ per tag. Pin that two wraps of the same
  // session key never collide.
  PolicyLock lock(params::load("tre-toy-96"));
  std::vector<std::string> conds = {"c1", "c2"};
  AnyCiphertext ct = lock.lock_any(to_bytes("m"), user_.pub, server_.pub, conds, rng_);
  ASSERT_EQ(ct.wraps.size(), 2u);
  EXPECT_NE(ct.wraps[0].second, ct.wraps[1].second);
}

}  // namespace
}  // namespace tre::core
