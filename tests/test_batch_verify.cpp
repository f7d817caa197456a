// Pippenger multi-exponentiation and randomized batch verification.
//
// The acceptance bar has two halves. Correctness: the bucketed
// multi-exp must equal the naive Σ kᵢ·Pᵢ on every edge the engine
// special-cases (empty batch, zero scalars, repeated and infinity
// points), on BOTH backends. Soundness under hostility: an RLC batch
// hiding 1, 2, or ⌈N/2⌉ forged/relabeled updates must bisect to
// EXACTLY the guilty set — zero forged accepts, zero honest drops —
// and the advertised 2^-rlc_bits soundness error must be measurable
// when the scalar width is deliberately crippled.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bls12/tre381.h"
#include "core/tre.h"
#include "hashing/drbg.h"

namespace tre {
namespace {

// Per-backend glue the generic tests need: how to build a (fast) scheme
// and how to add two Gu points (the policy has no gu_add — the scheme
// never needed one until the naive reference sum here).
template <class B>
struct Glue;

template <>
struct Glue<core::Tre512Backend> {
  static core::TreScheme scheme() {
    return core::TreScheme(params::load("tre-toy-96"));
  }
  static ec::G1Point add(const params::GdhParams&, const ec::G1Point& a,
                         const ec::G1Point& b) {
    return a + b;
  }
};

template <>
struct Glue<bls12::Bls381Backend> {
  static bls12::Tre381Scheme scheme() { return bls12::make_tre381(); }
  static bls12::G1Point381 add(const bls12::Bls12Ctx& p,
                               const bls12::G1Point381& a,
                               const bls12::G1Point381& b) {
    return p.g1_add(a, b);
  }
};

template <class B>
class BatchVerifyTest : public ::testing::Test {
 protected:
  BatchVerifyTest()
      : scheme_(Glue<B>::scheme()),
        rng_(to_bytes("batch-verify-rng")),
        server_(scheme_.server_keygen(rng_)) {}

  std::string tag_for(size_t i) { return std::string("T").append(std::to_string(i)); }

  std::vector<core::BasicKeyUpdate<B>> honest(size_t n) {
    std::vector<std::string> tags;
    for (size_t i = 0; i < n; ++i) tags.push_back(tag_for(i));
    return scheme_.issue_updates(server_, tags);
  }

  core::BasicTreScheme<B> scheme_;
  hashing::HmacDrbg rng_;
  core::BasicServerKeyPair<B> server_;
};

using Backends = ::testing::Types<core::Tre512Backend, bls12::Bls381Backend>;
TYPED_TEST_SUITE(BatchVerifyTest, Backends);

// --- multi-exponentiation ----------------------------------------------------

TYPED_TEST(BatchVerifyTest, MultiexpMatchesNaiveSum) {
  using B = TypeParam;
  const auto& p = this->scheme_.params();
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{17}, size_t{64}}) {
    std::vector<typename B::Gu> pts;
    std::vector<core::Scalar> ks;
    for (size_t i = 0; i < n; ++i) {
      pts.push_back(this->scheme_.hash_tag(std::string("P").append(std::to_string(i))));
      ks.push_back(B::random_scalar(p, this->rng_));
    }
    typename B::Gu want = B::gu_mul(p, pts[0], ks[0]);
    for (size_t i = 1; i < n; ++i) {
      want = Glue<B>::add(p, want, B::gu_mul(p, pts[i], ks[i]));
    }
    typename B::Gu got = B::gu_multiexp(
        p, std::span<const typename B::Gu>(pts),
        std::span<const core::Scalar>(ks), /*threads=*/0);
    EXPECT_TRUE(B::gu_eq(want, got)) << "n=" << n;
  }
}

TYPED_TEST(BatchVerifyTest, MultiexpHandlesEdgeCases) {
  using B = TypeParam;
  const auto& p = this->scheme_.params();

  // Empty batch: identity.
  EXPECT_TRUE(B::gu_is_infinity(
      B::gu_multiexp(p, std::span<const typename B::Gu>(),
                     std::span<const core::Scalar>(), 0)));

  typename B::Gu g = this->scheme_.hash_tag("edge");
  typename B::Gu inf = B::gu_mul(p, g, B::group_order(p));  // q·G = O
  ASSERT_TRUE(B::gu_is_infinity(inf));

  // Zero scalars and infinity points drop out; repeated points combine.
  std::vector<typename B::Gu> pts = {g, inf, g, g};
  std::vector<core::Scalar> ks = {
      core::Scalar::from_u64(5), core::Scalar::from_u64(7),
      core::Scalar::from_u64(0), core::Scalar::from_u64(9)};
  typename B::Gu got = B::gu_multiexp(p, std::span<const typename B::Gu>(pts),
                                      std::span<const core::Scalar>(ks), 0);
  typename B::Gu want = B::gu_mul(p, g, core::Scalar::from_u64(14));
  EXPECT_TRUE(B::gu_eq(want, got));

  // All-zero scalars: identity.
  std::vector<core::Scalar> zeros(4, core::Scalar::from_u64(0));
  EXPECT_TRUE(B::gu_is_infinity(
      B::gu_multiexp(p, std::span<const typename B::Gu>(pts),
                     std::span<const core::Scalar>(zeros), 0)));

  // Serial and pooled execution agree.
  typename B::Gu serial = B::gu_multiexp(
      p, std::span<const typename B::Gu>(pts),
      std::span<const core::Scalar>(ks), /*threads=*/1);
  EXPECT_TRUE(B::gu_eq(got, serial));
}

// --- batch verification ------------------------------------------------------

TYPED_TEST(BatchVerifyTest, AcceptsHonestBatches) {
  using B = TypeParam;
  for (size_t n : {size_t{1}, size_t{2}, size_t{32}}) {
    std::vector<core::BasicKeyUpdate<B>> updates = this->honest(n);
    EXPECT_TRUE(this->scheme_
                    .verify_updates_batch(this->server_.pub, updates,
                                          this->rng_)
                    .empty())
        << "n=" << n;
  }
  std::vector<core::BasicKeyUpdate<B>> empty;
  EXPECT_TRUE(this->scheme_
                  .verify_updates_batch(this->server_.pub, empty, this->rng_)
                  .empty());
}

TYPED_TEST(BatchVerifyTest, BisectsToExactlyTheGuiltySet) {
  using B = TypeParam;
  const auto& p = this->scheme_.params();
  const size_t n = 32;
  for (size_t forged_count : {size_t{1}, size_t{2}, n / 2}) {
    std::vector<core::BasicKeyUpdate<B>> updates = this->honest(n);
    std::vector<size_t> guilty;
    for (size_t k = 0; k < forged_count; ++k) {
      size_t idx = (7 * k + 3) % n;
      switch (k % 3) {
        case 0:  // wrong point: sig doubled, still in the subgroup
          updates[idx].sig =
              B::gu_mul(p, updates[idx].sig, core::Scalar::from_u64(2));
          break;
        case 1:  // relabel: honest sig presented under a foreign tag
          updates[idx].tag = "relabeled-" + std::to_string(k);
          break;
        default:  // substitution: another tag's honest sig
          updates[idx].sig = this->scheme_.hash_tag("alien");
          break;
      }
      guilty.push_back(idx);
    }
    std::sort(guilty.begin(), guilty.end());
    std::vector<size_t> bad = this->scheme_.verify_updates_batch(
        this->server_.pub, updates, this->rng_);
    EXPECT_EQ(bad, guilty) << "forged_count=" << forged_count;
    // Zero forged accepts AND zero honest drops, per item.
    for (size_t i = 0; i < n; ++i) {
      bool flagged = std::binary_search(bad.begin(), bad.end(), i);
      EXPECT_EQ(this->scheme_.verify_update(this->server_.pub, updates[i]),
                !flagged)
          << "i=" << i;
    }
  }
}

TYPED_TEST(BatchVerifyTest, FlagsInfinitySignatures) {
  using B = TypeParam;
  const auto& p = this->scheme_.params();
  std::vector<core::BasicKeyUpdate<B>> updates = this->honest(6);
  updates[4].sig = B::gu_mul(p, updates[4].sig, B::group_order(p));
  ASSERT_TRUE(B::gu_is_infinity(updates[4].sig));
  std::vector<size_t> bad = this->scheme_.verify_updates_batch(
      this->server_.pub, updates, this->rng_);
  EXPECT_EQ(bad, std::vector<size_t>{4});
}

// --- soundness-error bound ---------------------------------------------------

// With rlc_bits = λ the RLC accepts a forged batch iff the forged item's
// scalar annihilates its offset mod the group order — probability
// exactly 2^-λ for uniform scalars. λ = 2 makes that 1/4, large enough
// to measure in a few hundred trials; λ = 16 already pushes a false
// accept out of reach of this test's lifetime. (Default is 128.)
TEST(BatchSoundness, CrippledScalarWidthShowsTheBound) {
  core::TreScheme scheme(params::load("tre-toy-96"));
  hashing::HmacDrbg rng(to_bytes("soundness-rng"));
  core::ServerKeyPair server = scheme.server_keygen(rng);

  core::KeyUpdate good = scheme.issue_update(server, "T-good");
  core::KeyUpdate forged = scheme.issue_update(server, "T-forged");
  forged.sig = forged.sig + forged.sig;  // off by a factor of 2
  std::vector<core::KeyUpdate> batch = {good, forged};

  const int kTrials = 400;
  int false_accepts = 0;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<size_t> bad =
        scheme.verify_updates_batch(server.pub, batch, rng, /*rlc_bits=*/2);
    if (bad.empty()) {
      ++false_accepts;
    } else {
      // When the RLC does fire, attribution is still exact.
      EXPECT_EQ(bad, std::vector<size_t>{1});
    }
  }
  // Binomial(400, 1/4): mean 100, σ ≈ 8.7. ±4.6σ keeps flake odds
  // negligible while still pinning the error to the predicted decade.
  EXPECT_GT(false_accepts, 60);
  EXPECT_LT(false_accepts, 140);

  for (int t = 0; t < 100; ++t) {
    EXPECT_EQ(scheme.verify_updates_batch(server.pub, batch, rng,
                                          /*rlc_bits=*/16),
              std::vector<size_t>{1});
  }
}

}  // namespace
}  // namespace tre
