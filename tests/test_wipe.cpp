// Zeroization: core::wipe must actually clear key material, on both
// backends, for every wipeable type. Scalar limbs are snapshotted, wiped
// and re-read through volatile pointers (so a compiler cannot elide the
// stores); point-holding types are checked for their structural reset.
#include <gtest/gtest.h>

#include "bls12/tre381.h"
#include "core/tre.h"
#include "core/wipe.h"
#include "hashing/drbg.h"
#include "params/params.h"
#include "threshold/threshold.h"

namespace tre::core {
namespace {

/// Volatile re-read of a scalar's limbs: returns the OR of all limbs, so
/// zero means every byte of the secret really was cleared in memory.
std::uint64_t volatile_or(const Scalar& s) {
  volatile const std::uint64_t* p = s.w.data();
  std::uint64_t acc = 0;
  for (size_t i = 0; i < s.w.size(); ++i) acc |= p[i];
  return acc;
}

TEST(Wipe, ScalarLimbsAllZero) {
  Scalar s = Scalar::from_u64(0xdeadbeefcafef00dULL);
  ASSERT_NE(volatile_or(s), 0u);
  wipe(s);
  EXPECT_EQ(volatile_or(s), 0u);
}

class Wipe512 : public ::testing::Test {
 protected:
  Wipe512()
      : scheme_(params::load("tre-toy-96")), rng_(to_bytes("wipe-512")) {}

  TreScheme scheme_;
  hashing::HmacDrbg rng_;
};

TEST_F(Wipe512, ServerKeyPair) {
  ServerKeyPair server = scheme_.server_keygen(rng_);
  ASSERT_NE(volatile_or(server.s), 0u);
  wipe(server);
  EXPECT_EQ(volatile_or(server.s), 0u);
}

TEST_F(Wipe512, UserKeyPair) {
  ServerKeyPair server = scheme_.server_keygen(rng_);
  UserKeyPair user = scheme_.user_keygen(server.pub, rng_);
  ASSERT_NE(volatile_or(user.a), 0u);
  wipe(user);
  EXPECT_EQ(volatile_or(user.a), 0u);
}

TEST_F(Wipe512, EpochKey) {
  ServerKeyPair server = scheme_.server_keygen(rng_);
  UserKeyPair user = scheme_.user_keygen(server.pub, rng_);
  KeyUpdate update = scheme_.issue_update(server, "T");
  EpochKey key = scheme_.derive_epoch_key(user.a, update);
  ASSERT_FALSE(key.d.is_infinity());
  ASSERT_FALSE(key.tag.empty());
  wipe(key);
  EXPECT_TRUE(key.d.is_infinity());
  EXPECT_TRUE(key.tag.empty());
}

class Wipe381 : public ::testing::Test {
 protected:
  Wipe381() : scheme_(bls12::make_tre381()), rng_(to_bytes("wipe-381")) {}

  bls12::Tre381Scheme scheme_;
  hashing::HmacDrbg rng_;
};

TEST_F(Wipe381, ServerKeyPair) {
  auto server = scheme_.server_keygen(rng_);
  ASSERT_NE(volatile_or(server.s), 0u);
  wipe(server);
  EXPECT_EQ(volatile_or(server.s), 0u);
}

TEST_F(Wipe381, UserKeyPair) {
  auto server = scheme_.server_keygen(rng_);
  auto user = scheme_.user_keygen(server.pub, rng_);
  ASSERT_NE(volatile_or(user.a), 0u);
  wipe(user);
  EXPECT_EQ(volatile_or(user.a), 0u);
}

TEST_F(Wipe381, EpochKey) {
  auto server = scheme_.server_keygen(rng_);
  auto user = scheme_.user_keygen(server.pub, rng_);
  auto update = scheme_.issue_update(server, "T");
  auto key = scheme_.derive_epoch_key(user.a, update);
  ASSERT_FALSE(key.d.inf);
  ASSERT_FALSE(key.tag.empty());
  wipe(key);
  EXPECT_TRUE(key.d.inf);
  EXPECT_TRUE(key.tag.empty());
  EXPECT_TRUE(key.d.x.is_zero());
  EXPECT_TRUE(key.d.y.is_zero());
}

TEST_F(Wipe381, ThresholdShareAndGroupKey) {
  threshold::BasicThresholdScheme<bls12::Bls381Backend> service(bls12::Bls12Ctx::get());
  auto [key, shares] = service.setup({5, 3}, rng_);
  ASSERT_FALSE(shares.empty());

  for (auto& share : shares) {
    ASSERT_NE(volatile_or(share.share), 0u);
    threshold::wipe(share);
    EXPECT_EQ(volatile_or(share.share), 0u);
    EXPECT_EQ(share.index, 0u);
  }

  ASSERT_FALSE(key.group.sg.inf);
  ASSERT_EQ(key.pub_shares.size(), 5u);
  threshold::wipe(key);
  EXPECT_TRUE(key.group.sg.inf);
  EXPECT_TRUE(key.pub_shares.empty());
  EXPECT_EQ(key.config.n, 0u);
  EXPECT_EQ(key.config.k, 0u);
}

}  // namespace
}  // namespace tre::core
