// End-to-end tests of the paper's §5.1 TRE scheme and its §5.3 extensions.
#include "core/tre.h"

#include <gtest/gtest.h>

#include "ec/curve.h"
#include "hashing/drbg.h"
#include "hashing/kdf.h"
#include "pairing/pairing.h"

namespace tre::core {
namespace {

constexpr const char* kTag = "2005-06-06T09:00:00Z";
constexpr const char* kOtherTag = "2005-06-06T09:00:01Z";

class TreTest : public ::testing::Test {
 protected:
  TreTest()
      : scheme_(params::load("tre-toy-96")),
        rng_(to_bytes("tre-tests")),
        server_(scheme_.server_keygen(rng_)),
        user_(scheme_.user_keygen(server_.pub, rng_)) {}

  Bytes msg(const char* s = "attack at dawn") { return to_bytes(s); }

  TreScheme scheme_;
  hashing::HmacDrbg rng_;
  ServerKeyPair server_;
  UserKeyPair user_;
};

// --- Keys -------------------------------------------------------------------

TEST_F(TreTest, ServerKeysVerify) {
  EXPECT_TRUE(scheme_.verify_server_public_key(server_.pub));
  EXPECT_FALSE(server_.pub.g == server_.pub.sg);
}

TEST_F(TreTest, UserKeysVerify) {
  EXPECT_TRUE(scheme_.verify_user_public_key(server_.pub, user_.pub));
}

TEST_F(TreTest, MalformedUserKeyRejected) {
  // asg replaced by a random point: the paper's step-1 check must fail,
  // because such a receiver could decrypt without the server update.
  UserKeyPair other = scheme_.user_keygen(server_.pub, rng_);
  UserPublicKey forged{user_.pub.ag, other.pub.asg};
  EXPECT_FALSE(scheme_.verify_user_public_key(server_.pub, forged));
  EXPECT_THROW(
      scheme_.encrypt(msg(), forged, server_.pub, kTag, rng_, KeyCheck::kVerify),
      Error);
}

TEST_F(TreTest, UserKeyNotBoundToOtherServer) {
  ServerKeyPair other_server = scheme_.server_keygen(rng_);
  EXPECT_FALSE(scheme_.verify_user_public_key(other_server.pub, user_.pub));
}

TEST_F(TreTest, PasswordKeygenDeterministic) {
  UserKeyPair a = scheme_.user_keygen_from_password(server_.pub, "hunter2");
  UserKeyPair b = scheme_.user_keygen_from_password(server_.pub, "hunter2");
  EXPECT_EQ(a.a, b.a);
  EXPECT_TRUE(a.pub == b.pub);
  EXPECT_TRUE(scheme_.verify_user_public_key(server_.pub, a.pub));
  UserKeyPair c = scheme_.user_keygen_from_password(server_.pub, "hunter3");
  EXPECT_NE(a.a, c.a);
  // Same password under a different server yields an unrelated secret.
  ServerKeyPair s2 = scheme_.server_keygen(rng_);
  UserKeyPair d = scheme_.user_keygen_from_password(s2.pub, "hunter2");
  EXPECT_NE(a.a, d.a);
}

// --- Updates -----------------------------------------------------------------

TEST_F(TreTest, UpdateSelfAuthenticates) {
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  EXPECT_EQ(upd.tag, kTag);
  EXPECT_TRUE(scheme_.verify_update(server_.pub, upd));
}

TEST_F(TreTest, ForgedUpdateRejected) {
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  // Wrong tag claimed for a valid signature.
  KeyUpdate relabeled{kOtherTag, upd.sig};
  EXPECT_FALSE(scheme_.verify_update(server_.pub, relabeled));
  // Signature by a different server.
  ServerKeyPair rogue = scheme_.server_keygen(rng_);
  KeyUpdate foreign = scheme_.issue_update(rogue, kTag);
  EXPECT_FALSE(scheme_.verify_update(server_.pub, foreign));
  // Random point.
  KeyUpdate junk{kTag, scheme_.hash_tag("junk")};
  EXPECT_FALSE(scheme_.verify_update(server_.pub, junk));
  // Infinity.
  KeyUpdate inf{kTag, ec::G1Point::infinity(scheme_.params().ctx())};
  EXPECT_FALSE(scheme_.verify_update(server_.pub, inf));
}

TEST_F(TreTest, UpdateIdenticalForAllUsers) {
  // The whole point of the scheme: the update depends only on (s, T).
  KeyUpdate u1 = scheme_.issue_update(server_, kTag);
  KeyUpdate u2 = scheme_.issue_update(server_, kTag);
  EXPECT_EQ(u1, u2);
}

// --- Basic scheme -------------------------------------------------------------

TEST_F(TreTest, EncryptDecryptRoundtrip) {
  Ciphertext ct = scheme_.encrypt(msg(), user_.pub, server_.pub, kTag, rng_);
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  EXPECT_EQ(scheme_.decrypt(ct, user_.a, upd), msg());
}

TEST_F(TreTest, MessageSizesSweep) {
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  for (size_t n : {0u, 1u, 31u, 32u, 33u, 1000u, 65535u}) {
    Bytes m = rng_.bytes(n);
    Ciphertext ct = scheme_.encrypt(m, user_.pub, server_.pub, kTag, rng_);
    EXPECT_EQ(scheme_.decrypt(ct, user_.a, upd), m) << "size " << n;
  }
}

TEST_F(TreTest, WrongUpdateYieldsGarbage) {
  Ciphertext ct = scheme_.encrypt(msg(), user_.pub, server_.pub, kTag, rng_);
  KeyUpdate wrong = scheme_.issue_update(server_, kOtherTag);
  EXPECT_NE(scheme_.decrypt(ct, user_.a, wrong), msg());
}

TEST_F(TreTest, WrongPrivateKeyYieldsGarbage) {
  Ciphertext ct = scheme_.encrypt(msg(), user_.pub, server_.pub, kTag, rng_);
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  UserKeyPair eve = scheme_.user_keygen(server_.pub, rng_);
  EXPECT_NE(scheme_.decrypt(ct, eve.a, upd), msg());
}

TEST_F(TreTest, CiphertextsAreRandomized) {
  Ciphertext c1 = scheme_.encrypt(msg(), user_.pub, server_.pub, kTag, rng_);
  Ciphertext c2 = scheme_.encrypt(msg(), user_.pub, server_.pub, kTag, rng_);
  EXPECT_FALSE(c1.u == c2.u);
  EXPECT_NE(c1.v, c2.v);
}

TEST_F(TreTest, AnyFutureTagEncryptsWithoutServerData) {
  // Paper footnote 2: the sender never needs anything from the server for
  // any release time, however far in the future.
  KeyUpdate upd = scheme_.issue_update(server_, "9999-12-31T23:59:59Z");
  Ciphertext ct =
      scheme_.encrypt(msg(), user_.pub, server_.pub, "9999-12-31T23:59:59Z", rng_);
  EXPECT_EQ(scheme_.decrypt(ct, user_.a, upd), msg());
}

// --- FO (CCA) -------------------------------------------------------------------

TEST_F(TreTest, FoRoundtrip) {
  FoCiphertext ct = scheme_.encrypt_fo(msg(), user_.pub, server_.pub, kTag, rng_);
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  auto out = scheme_.decrypt_fo(ct, user_.a, upd, server_.pub);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, msg());
}

TEST_F(TreTest, FoRejectsTamperedBody) {
  FoCiphertext ct = scheme_.encrypt_fo(msg(), user_.pub, server_.pub, kTag, rng_);
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  ct.c_msg[0] ^= 1;
  EXPECT_FALSE(scheme_.decrypt_fo(ct, user_.a, upd, server_.pub).has_value());
}

TEST_F(TreTest, FoRejectsTamperedSigma) {
  FoCiphertext ct = scheme_.encrypt_fo(msg(), user_.pub, server_.pub, kTag, rng_);
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  ct.c_sigma[3] ^= 0x80;
  EXPECT_FALSE(scheme_.decrypt_fo(ct, user_.a, upd, server_.pub).has_value());
}

TEST_F(TreTest, FoRejectsSwappedU) {
  FoCiphertext c1 = scheme_.encrypt_fo(msg(), user_.pub, server_.pub, kTag, rng_);
  FoCiphertext c2 = scheme_.encrypt_fo(msg("other"), user_.pub, server_.pub, kTag, rng_);
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  FoCiphertext mixed{c2.u, c1.c_sigma, c1.c_msg};
  EXPECT_FALSE(scheme_.decrypt_fo(mixed, user_.a, upd, server_.pub).has_value());
}

TEST_F(TreTest, FoRejectsWrongUpdate) {
  FoCiphertext ct = scheme_.encrypt_fo(msg(), user_.pub, server_.pub, kTag, rng_);
  KeyUpdate wrong = scheme_.issue_update(server_, kOtherTag);
  EXPECT_FALSE(scheme_.decrypt_fo(ct, user_.a, wrong, server_.pub).has_value());
}

TEST_F(TreTest, FoEmptyMessage) {
  FoCiphertext ct = scheme_.encrypt_fo({}, user_.pub, server_.pub, kTag, rng_);
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  auto out = scheme_.decrypt_fo(ct, user_.a, upd, server_.pub);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
}

// --- REACT (CCA) ------------------------------------------------------------------

TEST_F(TreTest, ReactRoundtrip) {
  ReactCiphertext ct = scheme_.encrypt_react(msg(), user_.pub, server_.pub, kTag, rng_);
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  auto out = scheme_.decrypt_react(ct, user_.a, upd);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, msg());
}

TEST_F(TreTest, ReactRejectsTampering) {
  ReactCiphertext ct = scheme_.encrypt_react(msg(), user_.pub, server_.pub, kTag, rng_);
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  for (Bytes* field : {&ct.c_r, &ct.c_msg, &ct.mac}) {
    Bytes saved = *field;
    (*field)[0] ^= 1;
    EXPECT_FALSE(scheme_.decrypt_react(ct, user_.a, upd).has_value());
    *field = saved;
  }
  // Untampered again decrypts.
  EXPECT_TRUE(scheme_.decrypt_react(ct, user_.a, upd).has_value());
}

TEST_F(TreTest, ReactRejectsWrongKeyOrUpdate) {
  ReactCiphertext ct = scheme_.encrypt_react(msg(), user_.pub, server_.pub, kTag, rng_);
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  KeyUpdate wrong = scheme_.issue_update(server_, kOtherTag);
  UserKeyPair eve = scheme_.user_keygen(server_.pub, rng_);
  EXPECT_FALSE(scheme_.decrypt_react(ct, user_.a, wrong).has_value());
  EXPECT_FALSE(scheme_.decrypt_react(ct, eve.a, upd).has_value());
}

// --- Key insulation (§5.3.3) -----------------------------------------------------

TEST_F(TreTest, EpochKeyDecrypts) {
  Ciphertext ct = scheme_.encrypt(msg(), user_.pub, server_.pub, kTag, rng_);
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  EpochKey ek = scheme_.derive_epoch_key(user_.a, upd);
  EXPECT_EQ(ek.tag, kTag);
  EXPECT_EQ(scheme_.decrypt_with_epoch_key(ct, ek), msg());
}

TEST_F(TreTest, EpochKeyIsEpochBound) {
  // A compromised epoch key must not decrypt other epochs.
  Ciphertext ct = scheme_.encrypt(msg(), user_.pub, server_.pub, kOtherTag, rng_);
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  EpochKey ek = scheme_.derive_epoch_key(user_.a, upd);
  EXPECT_NE(scheme_.decrypt_with_epoch_key(ct, ek), msg());
}

TEST_F(TreTest, EpochKeyWithFo) {
  FoCiphertext ct = scheme_.encrypt_fo(msg(), user_.pub, server_.pub, kTag, rng_);
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  EpochKey ek = scheme_.derive_epoch_key(user_.a, upd);
  auto out = scheme_.decrypt_fo_with_epoch_key(ct, ek, server_.pub);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, msg());
  // Cross-epoch use is rejected by the FO check.
  EpochKey other = scheme_.derive_epoch_key(user_.a, scheme_.issue_update(server_, kOtherTag));
  EXPECT_FALSE(scheme_.decrypt_fo_with_epoch_key(ct, other, server_.pub).has_value());
}

TEST_F(TreTest, EpochKeyMatchesDirectDecryption) {
  Ciphertext ct = scheme_.encrypt(msg(), user_.pub, server_.pub, kTag, rng_);
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  EpochKey ek = scheme_.derive_epoch_key(user_.a, upd);
  EXPECT_EQ(scheme_.decrypt_with_epoch_key(ct, ek), scheme_.decrypt(ct, user_.a, upd));
}

// --- Server change (§5.3.4) -------------------------------------------------------

TEST_F(TreTest, ReboundKeyVerifiesAgainstCertifiedKey) {
  ServerKeyPair new_server = scheme_.server_keygen(rng_);
  UserPublicKey rebound = scheme_.rebind_user_key(user_.a, new_server.pub);
  EXPECT_TRUE(scheme_.verify_rebound_key(user_.pub.ag, server_.pub.g,
                                         new_server.pub, rebound));
  // And it is a fully functional key under the new server.
  Ciphertext ct = scheme_.encrypt(msg(), rebound, new_server.pub, kTag, rng_);
  KeyUpdate upd = scheme_.issue_update(new_server, kTag);
  EXPECT_EQ(scheme_.decrypt(ct, user_.a, upd), msg());
}

TEST_F(TreTest, ReboundKeyFromImpostorRejected) {
  ServerKeyPair new_server = scheme_.server_keygen(rng_);
  UserKeyPair eve = scheme_.user_keygen(server_.pub, rng_);
  // Eve presents her own key as a rebinding of the victim's certified key.
  UserPublicKey forged = scheme_.rebind_user_key(eve.a, new_server.pub);
  EXPECT_FALSE(scheme_.verify_rebound_key(user_.pub.ag, server_.pub.g,
                                          new_server.pub, forged));
}

// --- Serialization ----------------------------------------------------------------

TEST_F(TreTest, AllArtifactsRoundtripThroughBytes) {
  const auto& p = scheme_.params();
  EXPECT_TRUE(ServerPublicKey::from_bytes(p, server_.pub.to_bytes()) == server_.pub);
  EXPECT_TRUE(UserPublicKey::from_bytes(p, user_.pub.to_bytes()) == user_.pub);

  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  EXPECT_TRUE(KeyUpdate::from_bytes(p, upd.to_bytes()) == upd);

  Ciphertext ct = scheme_.encrypt(msg(), user_.pub, server_.pub, kTag, rng_);
  Ciphertext ct2 = Ciphertext::from_bytes(p, ct.to_bytes());
  EXPECT_EQ(scheme_.decrypt(ct2, user_.a, upd), msg());

  FoCiphertext fo = scheme_.encrypt_fo(msg(), user_.pub, server_.pub, kTag, rng_);
  FoCiphertext fo2 = FoCiphertext::from_bytes(p, fo.to_bytes());
  EXPECT_EQ(scheme_.decrypt_fo(fo2, user_.a, upd, server_.pub).value(), msg());

  ReactCiphertext re = scheme_.encrypt_react(msg(), user_.pub, server_.pub, kTag, rng_);
  ReactCiphertext re2 = ReactCiphertext::from_bytes(p, re.to_bytes());
  EXPECT_EQ(scheme_.decrypt_react(re2, user_.a, upd).value(), msg());
}

TEST_F(TreTest, DeserializationRejectsTruncation) {
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  Bytes enc = upd.to_bytes();
  const auto& p = scheme_.params();
  EXPECT_THROW(KeyUpdate::from_bytes(p, ByteSpan(enc.data(), enc.size() - 1)), Error);
  Bytes extended = enc;
  extended.push_back(0);
  EXPECT_THROW(KeyUpdate::from_bytes(p, extended), Error);
}

TEST_F(TreTest, DeserializationRejectsSmallSubgroupPoints) {
  // Build an on-curve point OUTSIDE the order-q subgroup (order divides
  // the cofactor 12r) by running the encoding map without cofactor
  // clearing, and smuggle it into a KeyUpdate wire image.
  const auto* curve = scheme_.params().ctx();
  const field::FpCtx* fp = curve->fp.get();
  ec::G1Point rogue;
  for (std::uint32_t i = 0;; ++i) {
    Bytes h = hashing::oracle_bytes("rogue", be32(i), 2 * fp->byte_len);
    field::Fp y = field::Fp::from_bytes_wide(fp, h);
    field::Fp x = (y.squared() - field::Fp::one(fp)).pow(curve->cube_root_exp);
    ec::G1Point candidate = ec::G1Point::make(curve, x, y);
    if (!candidate.in_subgroup()) {
      rogue = candidate;
      break;
    }
  }
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  KeyUpdate forged{upd.tag, rogue};
  Bytes wire = forged.to_bytes();
  EXPECT_THROW(KeyUpdate::from_bytes(scheme_.params(), wire), Error);
  // The raw EC layer still parses it (it IS on the curve) — the rejection
  // belongs to the protocol layer.
  EXPECT_EQ(ec::G1Point::from_bytes(curve, rogue.to_bytes_compressed()), rogue);
}

TEST_F(TreTest, UpdateWireSizeIsOneCompressedPoint) {
  // §5.3.1: the update is a single short signature.
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  EXPECT_EQ(upd.to_bytes().size(),
            2 + std::string(kTag).size() + scheme_.params().g1_compressed_bytes());
}

// --- Oracle check and batch APIs ----------------------------------------------

TEST_F(TreTest, SealMatchesUncachedPairingOracle) {
  // seal(kBasic) draws r first, so a replayed DRBG recovers it. The §5.1
  // equations are then checked from public primitives alone: no memo
  // cache, no comb, no Miller-line precomp, no unitary G_T power.
  hashing::HmacDrbg rng_seal(to_bytes("session-key-oracle"));
  hashing::HmacDrbg rng_replay(to_bytes("session-key-oracle"));
  const Bytes m = msg();
  SealedCiphertext sc = scheme_.seal(Mode::kBasic, m, user_.pub, server_.pub, kTag, rng_seal);
  const Ciphertext& ct = std::get<Ciphertext>(sc.body);
  const Scalar r = params::random_scalar(scheme_.params(), rng_replay);

  EXPECT_EQ(ct.u, server_.pub.g.mul(r));  // U = r·G
  // K = ê(r·asG, H1(T)); V = M ⊕ H2(K).
  const ec::G1Point h1t = ec::hash_to_g1(scheme_.params().ctx(), to_bytes(kTag));
  const Gt k = pairing::pair(user_.pub.asg.mul(r), h1t);
  EXPECT_EQ(ct.v, xor_bytes(m, hashing::oracle_bytes("TRE-H2", k.to_bytes(), m.size())));
  // The receiver's side: ê(U, I_T)^a == K with I_T = s·H1(T).
  EXPECT_EQ(pairing::pair(ct.u, h1t.mul(server_.s)).pow(user_.a), k);
}

TEST_F(TreTest, EncryptBatchMatchesSequentialEncrypt) {
  std::vector<Bytes> msgs;
  for (int i = 0; i < 8; ++i) msgs.push_back(to_bytes("batch message " + std::to_string(i)));

  // Identical DRBG streams: the batch must reproduce the sequential
  // ciphertexts byte for byte.
  hashing::HmacDrbg rng_seq(to_bytes("batch-rng"));
  hashing::HmacDrbg rng_batch(to_bytes("batch-rng"));
  std::vector<Ciphertext> expected;
  for (const Bytes& m : msgs) {
    expected.push_back(scheme_.encrypt(m, user_.pub, server_.pub, kTag, rng_seq));
  }
  std::vector<Ciphertext> got =
      scheme_.encrypt_batch(msgs, user_.pub, server_.pub, kTag, rng_batch);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].to_bytes(), expected[i].to_bytes()) << "message #" << i;
  }

  // And every batch ciphertext decrypts.
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(scheme_.decrypt(got[i], user_.a, upd), msgs[i]);
  }
}

TEST_F(TreTest, EncryptBatchEmptyAndKeyCheck) {
  EXPECT_TRUE(
      scheme_.encrypt_batch({}, user_.pub, server_.pub, kTag, rng_).empty());
  UserKeyPair other = scheme_.user_keygen(server_.pub, rng_);
  UserPublicKey forged{user_.pub.ag, other.pub.asg};
  std::vector<Bytes> msgs = {msg()};
  EXPECT_THROW(scheme_.encrypt_batch(msgs, forged, server_.pub, kTag, rng_,
                                     KeyCheck::kVerify),
               Error);
}

TEST_F(TreTest, IssueUpdatesMatchesSingleIssue) {
  std::vector<std::string> tags;
  for (int i = 0; i < 6; ++i) tags.push_back("2005-06-06T09:00:0" + std::to_string(i) + "Z");
  std::vector<KeyUpdate> bulk = scheme_.issue_updates(server_, tags, 2);
  ASSERT_EQ(bulk.size(), tags.size());
  for (size_t i = 0; i < tags.size(); ++i) {
    EXPECT_EQ(bulk[i], scheme_.issue_update(server_, tags[i]));
    EXPECT_TRUE(scheme_.verify_update(server_.pub, bulk[i]));
  }
}

TEST_F(TreTest, RepeatedTagUsesConsistentCachedValues) {
  // Exercise the memoized tag hash / pair base / Miller lines across many
  // calls under one tag and across a second tag.
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  KeyUpdate other = scheme_.issue_update(server_, kOtherTag);
  for (int i = 0; i < 3; ++i) {
    Ciphertext ct = scheme_.encrypt(msg(), user_.pub, server_.pub, kTag, rng_);
    EXPECT_EQ(scheme_.decrypt(ct, user_.a, upd), msg());
    EXPECT_NE(scheme_.decrypt(ct, user_.a, other), msg());
  }
}

// --- Cross-parameter-set sweep ------------------------------------------------
// The full matrix runs on the toy curve above; this suite proves the
// protocol at every embedded security level.

class TreParamSweep : public ::testing::TestWithParam<const char*> {
 protected:
  TreParamSweep()
      : scheme_(params::load(GetParam())),
        rng_(to_bytes(std::string("sweep-") + GetParam())),
        server_(scheme_.server_keygen(rng_)),
        user_(scheme_.user_keygen(server_.pub, rng_)) {}

  TreScheme scheme_;
  hashing::HmacDrbg rng_;
  ServerKeyPair server_;
  UserKeyPair user_;
};

TEST_P(TreParamSweep, FullProtocolRoundtrip) {
  EXPECT_TRUE(scheme_.verify_user_public_key(server_.pub, user_.pub));
  Bytes msg = rng_.bytes(100);
  Ciphertext ct = scheme_.encrypt(msg, user_.pub, server_.pub, kTag, rng_);
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  EXPECT_TRUE(scheme_.verify_update(server_.pub, upd));
  EXPECT_EQ(scheme_.decrypt(ct, user_.a, upd), msg);
  // Wrong update still yields garbage at every level.
  KeyUpdate wrong = scheme_.issue_update(server_, kOtherTag);
  EXPECT_NE(scheme_.decrypt(ct, user_.a, wrong), msg);
}

TEST_P(TreParamSweep, FoRoundtripAndRejection) {
  Bytes msg = rng_.bytes(64);
  FoCiphertext ct = scheme_.encrypt_fo(msg, user_.pub, server_.pub, kTag, rng_);
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  auto out = scheme_.decrypt_fo(ct, user_.a, upd, server_.pub);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, msg);
  ct.c_msg[0] ^= 1;
  EXPECT_FALSE(scheme_.decrypt_fo(ct, user_.a, upd, server_.pub).has_value());
}

TEST_P(TreParamSweep, WireRoundtrip) {
  KeyUpdate upd = scheme_.issue_update(server_, kTag);
  EXPECT_TRUE(KeyUpdate::from_bytes(scheme_.params(), upd.to_bytes()) == upd);
  EXPECT_TRUE(UserPublicKey::from_bytes(scheme_.params(), user_.pub.to_bytes()) ==
              user_.pub);
}

INSTANTIATE_TEST_SUITE_P(AllParamSets, TreParamSweep,
                         ::testing::Values("tre-toy-96", "tre-512", "tre-768"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

}  // namespace
}  // namespace tre::core
