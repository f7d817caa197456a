// Parameter-set loading, validation and runtime generation.
#include "params/params.h"

#include <gtest/gtest.h>

#include "bigint/prime.h"
#include "core/tre.h"
#include "hashing/drbg.h"

namespace tre::params {
namespace {

TEST(Params, AvailableListsAllSets) {
  auto names = available();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "tre-toy-96");
  EXPECT_EQ(names[1], "tre-512");
  EXPECT_EQ(names[2], "tre-768");
}

TEST(Params, LoadUnknownThrows) {
  EXPECT_THROW(load("no-such-set"), Error);
}

TEST(Params, EmbeddedSetsAreWellFormed) {
  hashing::HmacDrbg rng(to_bytes("params-tests"));
  for (const auto& name : available()) {
    SCOPED_TRACE(name);
    auto p = load(name);
    EXPECT_EQ(p->name, name);
    EXPECT_TRUE(bigint::is_probable_prime(p->curve->p, rng, 10));
    EXPECT_TRUE(bigint::is_probable_prime(p->curve->q, rng, 10));
    ASSERT_FALSE(p->base.is_infinity());
    EXPECT_TRUE(p->base.in_subgroup());
  }
}

TEST(Params, SizesAreConsistent) {
  auto p = load("tre-512");
  EXPECT_EQ(p->scalar_bytes(), 20u);           // 160-bit q
  EXPECT_EQ(p->g1_uncompressed_bytes(), 129u);  // 1 + 2*64
  EXPECT_EQ(p->g1_compressed_bytes(), 65u);
  EXPECT_EQ(p->gt_bytes(), 128u);
}

TEST(Params, BaseIsDeterministicPerSet) {
  EXPECT_EQ(load("tre-toy-96")->base, load("tre-toy-96")->base);
  auto a = load("tre-toy-96");
  auto b = load("tre-512");
  // Different sets use different fields entirely.
  EXPECT_NE(a->curve->p, b->curve->p);
}

TEST(Params, RandomScalarInRange) {
  auto p = load("tre-toy-96");
  hashing::HmacDrbg rng(to_bytes("scalar-tests"));
  for (int i = 0; i < 100; ++i) {
    auto s = random_scalar(*p, rng);
    EXPECT_FALSE(s.is_zero());
    EXPECT_LT(s, p->group_order());
  }
}

TEST(Params, GenerateProducesValidCurve) {
  hashing::HmacDrbg rng(to_bytes("paramgen-tests"));
  auto p = generate(rng, /*qbits=*/32, /*pbits=*/80, "unit-test-set");
  EXPECT_EQ(p->name, "unit-test-set");
  EXPECT_TRUE(bigint::is_probable_prime(p->curve->p, rng, 10));
  EXPECT_EQ(p->curve->q.bit_length(), 32u);
  EXPECT_LE(p->curve->p.bit_length(), 80u);
  EXPECT_TRUE(p->base.in_subgroup());
}

TEST(Params, GeneratedCurveRunsTheFullScheme) {
  // Freshly searched parameters must be drop-in: the whole protocol
  // works on them, not just the curve invariants.
  hashing::HmacDrbg rng(to_bytes("paramgen-e2e"));
  auto p = generate(rng, /*qbits=*/40, /*pbits=*/96, "fresh");
  core::TreScheme scheme(p);
  core::ServerKeyPair server = scheme.server_keygen(rng);
  core::UserKeyPair user = scheme.user_keygen(server.pub, rng);
  EXPECT_TRUE(scheme.verify_user_public_key(server.pub, user.pub));
  Bytes msg = to_bytes("fresh-curve roundtrip");
  core::SealedCiphertext ct =
      scheme.seal(core::Mode::kBasic, msg, user.pub, server.pub, "T", rng);
  core::KeyUpdate upd = scheme.issue_update(server, "T");
  EXPECT_TRUE(scheme.verify_update(server.pub, upd));
  EXPECT_EQ(scheme.open(ct, user.a, upd, server.pub), msg);
}

TEST(Params, GenerateRejectsBadSizes) {
  hashing::HmacDrbg rng(to_bytes("paramgen-tests"));
  EXPECT_THROW(generate(rng, 8, 80), Error);      // q too small
  EXPECT_THROW(generate(rng, 64, 64), Error);     // p not larger than q
  EXPECT_THROW(generate(rng, 64, 100000), Error); // beyond capacity
}

}  // namespace
}  // namespace tre::params
