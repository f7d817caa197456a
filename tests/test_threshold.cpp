// k-of-n threshold time server: sharing, partial verification, Lagrange
// combination, fault tolerance and composition with the plain scheme.
#include "threshold/threshold.h"

#include <gtest/gtest.h>

#include "core/tre.h"
#include "hashing/drbg.h"

namespace tre::threshold {
namespace {

using B = core::Tre512Backend;

constexpr const char* kTag = "2030-01-01T00:00:00Z";

class ThresholdTest : public ::testing::TestWithParam<std::pair<size_t, size_t>> {
 protected:
  ThresholdTest()
      : ttre_(params::load("tre-toy-96")),
        rng_(to_bytes("threshold-tests")) {
    auto [n, k] = GetParam();
    std::tie(key_, shares_) = ttre_.setup(ThresholdConfig{n, k}, rng_);
  }

  std::vector<BasicPartialUpdate<B>> partials_from(std::initializer_list<size_t> indices,
                                                   std::string_view tag = kTag) {
    std::vector<BasicPartialUpdate<B>> out;
    for (size_t i : indices) out.push_back(ttre_.issue_partial(shares_[i - 1], tag));
    return out;
  }

  BasicThresholdScheme<B> ttre_;
  hashing::HmacDrbg rng_;
  BasicThresholdKey<B> key_;
  std::vector<BasicServerShare<B>> shares_;
};

TEST_P(ThresholdTest, PartialsVerify) {
  for (const auto& share : shares_) {
    BasicPartialUpdate<B> p = ttre_.issue_partial(share, kTag);
    EXPECT_TRUE(ttre_.verify_partial(key_, p));
  }
}

TEST_P(ThresholdTest, ForgedPartialRejected) {
  BasicPartialUpdate<B> p = ttre_.issue_partial(shares_[0], kTag);
  BasicPartialUpdate<B> relabeled{p.index, "other-tag", p.sig};
  EXPECT_FALSE(ttre_.verify_partial(key_, relabeled));
  BasicPartialUpdate<B> wrong_index{2 <= key_.config.n ? 2u : 1u, p.tag, p.sig};
  if (key_.config.n >= 2) EXPECT_FALSE(ttre_.verify_partial(key_, wrong_index));
  BasicPartialUpdate<B> doubled{p.index, p.tag, p.sig.doubled()};
  EXPECT_FALSE(ttre_.verify_partial(key_, doubled));
}

TEST_P(ThresholdTest, AnyKSubsetCombinesToTheSameStandardUpdate) {
  auto [n, k] = GetParam();
  // First k servers.
  std::vector<BasicPartialUpdate<B>> front;
  for (size_t i = 1; i <= k; ++i) front.push_back(ttre_.issue_partial(shares_[i - 1], kTag));
  core::KeyUpdate u1 = ttre_.combine(key_, front);
  // Last k servers.
  std::vector<BasicPartialUpdate<B>> back;
  for (size_t i = n - k + 1; i <= n; ++i) {
    back.push_back(ttre_.issue_partial(shares_[i - 1], kTag));
  }
  core::KeyUpdate u2 = ttre_.combine(key_, back);
  EXPECT_EQ(u1, u2);
  // And the result verifies against the ordinary group key.
  EXPECT_TRUE(ttre_.scheme().verify_update(key_.group, u1));
}

TEST_P(ThresholdTest, CombinedUpdateDecryptsOrdinaryCiphertexts) {
  auto [n, k] = GetParam();
  (void)n;
  // A user binds to the GROUP key exactly as with a single server.
  const core::TreScheme& scheme = ttre_.scheme();
  core::UserKeyPair user = scheme.user_keygen(key_.group, rng_);
  Bytes msg = to_bytes("threshold-released");
  core::Ciphertext ct = scheme.encrypt(msg, user.pub, key_.group, kTag, rng_);

  std::vector<BasicPartialUpdate<B>> partials;
  for (size_t i = 1; i <= k; ++i) partials.push_back(ttre_.issue_partial(shares_[i - 1], kTag));
  core::KeyUpdate update = ttre_.combine(key_, partials);
  EXPECT_EQ(scheme.decrypt(ct, user.a, update), msg);
}

TEST_P(ThresholdTest, FewerThanKFails) {
  auto [n, k] = GetParam();
  (void)n;
  if (k < 2) GTEST_SKIP();
  std::vector<BasicPartialUpdate<B>> too_few;
  for (size_t i = 1; i < k; ++i) too_few.push_back(ttre_.issue_partial(shares_[i - 1], kTag));
  EXPECT_THROW(ttre_.combine(key_, too_few), Error);
}

TEST_P(ThresholdTest, WrongSubsetShapeRejected) {
  auto [n, k] = GetParam();
  (void)n;
  if (k < 2) GTEST_SKIP();
  // Duplicate index.
  std::vector<BasicPartialUpdate<B>> dup(k, ttre_.issue_partial(shares_[0], kTag));
  EXPECT_THROW(ttre_.combine(key_, dup), Error);
  // Mixed tags.
  std::vector<BasicPartialUpdate<B>> mixed;
  mixed.push_back(ttre_.issue_partial(shares_[0], kTag));
  for (size_t i = 2; i <= k; ++i) {
    mixed.push_back(ttre_.issue_partial(shares_[i - 1], "other"));
  }
  EXPECT_THROW(ttre_.combine(key_, mixed), Error);
}

TEST_P(ThresholdTest, CorruptPartialYieldsInvalidUpdate) {
  auto [n, k] = GetParam();
  (void)n;
  std::vector<BasicPartialUpdate<B>> partials;
  for (size_t i = 1; i <= k; ++i) partials.push_back(ttre_.issue_partial(shares_[i - 1], kTag));
  partials[0].sig = partials[0].sig.doubled();  // undetected corruption
  core::KeyUpdate bad = ttre_.combine(key_, partials);
  // combine() cannot detect it, but the self-authentication check does.
  EXPECT_FALSE(ttre_.scheme().verify_update(key_.group, bad));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ThresholdTest,
    ::testing::Values(std::pair<size_t, size_t>{1, 1}, std::pair<size_t, size_t>{3, 2},
                      std::pair<size_t, size_t>{5, 3}, std::pair<size_t, size_t>{7, 5}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.first) + "_k" +
             std::to_string(info.param.second);
    });

TEST(ThresholdEdge, RejectsBadConfig) {
  BasicThresholdScheme<B> ttre(params::load("tre-toy-96"));
  hashing::HmacDrbg rng(to_bytes("edge"));
  EXPECT_THROW(ttre.setup(ThresholdConfig{3, 0}, rng), Error);
  EXPECT_THROW(ttre.setup(ThresholdConfig{3, 4}, rng), Error);
  EXPECT_THROW(ttre.setup(ThresholdConfig{0, 0}, rng), Error);
}

TEST(ThresholdEdge, LivenessUnderFailures) {
  // n = 5, k = 3: any two servers may crash and releases still happen.
  BasicThresholdScheme<B> ttre(params::load("tre-toy-96"));
  hashing::HmacDrbg rng(to_bytes("liveness"));
  auto [key, shares] = ttre.setup(ThresholdConfig{5, 3}, rng);
  // Servers 2 and 4 are down; 1, 3, 5 publish.
  std::vector<BasicPartialUpdate<B>> alive = {ttre.issue_partial(shares[0], kTag),
                                              ttre.issue_partial(shares[2], kTag),
                                              ttre.issue_partial(shares[4], kTag)};
  core::KeyUpdate update = ttre.combine(key, alive);
  EXPECT_TRUE(ttre.scheme().verify_update(key.group, update));
}

}  // namespace
}  // namespace tre::threshold
