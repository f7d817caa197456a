// BLS12-381 backend: tower arithmetic, curve groups, and — the acid
// test — ate-pairing bilinearity. The context itself validates p, r,
// curve orders and the Frobenius eigenvalue at construction, so merely
// constructing it exercises the self-checks.
#include "bls12/tre381.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "bigint/prime.h"
#include "hashing/drbg.h"
#include "hashing/kdf.h"
#include "obs/metrics.h"
#include "threshold/threshold.h"

namespace tre::bls12 {
namespace {

using Partial = threshold::BasicPartialUpdate<Bls381Backend>;

class Bls12Test : public ::testing::Test {
 protected:
  Bls12Test() : ctx_(Bls12Ctx::get()), rng_(to_bytes("bls12-tests")) {}

  Fq2 random_fq2() { return Fq2(Fq::random(rng_), Fq::random(rng_)); }
  Fp12 random_fp12() {
    const TowerCtx& t = ctx_->tower();
    Fp12 r = fp12_zero(t);
    r.c0 = Fp6{random_fq2(), random_fq2(), random_fq2()};
    r.c1 = Fp6{random_fq2(), random_fq2(), random_fq2()};
    return r;
  }

  std::shared_ptr<const Bls12Ctx> ctx_;
  hashing::HmacDrbg rng_;
};

TEST_F(Bls12Test, DerivedConstantsValidated) {
  // Construction already ran the self-checks; spot-check the headline
  // facts here.
  EXPECT_EQ(ctx_->p().bit_length(), 381u);
  EXPECT_EQ(ctx_->r().bit_length(), 255u);
  EXPECT_TRUE(ctx_->fp()->p_mod_4_is_3);
}

TEST_F(Bls12Test, TowerFieldAxioms) {
  const TowerCtx& t = ctx_->tower();
  for (int i = 0; i < 5; ++i) {
    Fp12 a = random_fp12(), b = random_fp12(), c = random_fp12();
    EXPECT_TRUE(fp12_eq(fp12_mul(t, a, b), fp12_mul(t, b, a)));
    EXPECT_TRUE(fp12_eq(fp12_mul(t, fp12_mul(t, a, b), c),
                        fp12_mul(t, a, fp12_mul(t, b, c))));
    EXPECT_TRUE(fp12_eq(fp12_mul(t, a, fp12_add(b, c)),
                        fp12_add(fp12_mul(t, a, b), fp12_mul(t, a, c))));
    EXPECT_TRUE(fp12_eq(fp12_sqr(t, a), fp12_mul(t, a, a)));
    EXPECT_TRUE(fp12_is_one(t, fp12_mul(t, a, fp12_inv(t, a))));
  }
}

TEST_F(Bls12Test, FrobeniusIsThePPowerMap) {
  const TowerCtx& t = ctx_->tower();
  Fp12 a = random_fp12();
  Fp12 via_frob = fp12_frobenius(t, a);
  Fp12 via_pow = fp12_pow(t, a, ctx_->p());
  EXPECT_TRUE(fp12_eq(via_frob, via_pow));
  // frob^12 = identity.
  Fp12 twelve = a;
  for (int i = 0; i < 12; ++i) twelve = fp12_frobenius(t, twelve);
  EXPECT_TRUE(fp12_eq(twelve, a));
}

TEST_F(Bls12Test, Fp2SqrtWorks) {
  for (int i = 0; i < 10; ++i) {
    Fq2 a = random_fq2();
    Fq2 sq = a.squared();
    auto root = sq.sqrt();
    ASSERT_TRUE(root.has_value());
    EXPECT_TRUE(*root == a || *root == -a);
  }
}

TEST_F(Bls12Test, G1GroupBasics) {
  const G1Point381& g = ctx_->g1_generator();
  EXPECT_TRUE(ctx_->g1_on_curve(g));
  EXPECT_TRUE(ctx_->g1_in_subgroup(g));
  EXPECT_TRUE(ctx_->g1_mul(g, ctx_->r()).inf);

  Scalar a = ctx_->random_scalar(rng_);
  Scalar b = ctx_->random_scalar(rng_);
  Scalar sum = bigint::mod_wide(
      bigint::add(a.resized<13>(), b.resized<13>()), ctx_->r());
  EXPECT_TRUE(ctx_->g1_eq(ctx_->g1_add(ctx_->g1_mul(g, a), ctx_->g1_mul(g, b)),
                          ctx_->g1_mul(g, sum)));
}

TEST_F(Bls12Test, G2GroupBasics) {
  const G2Point381& h = ctx_->g2_generator();
  EXPECT_TRUE(ctx_->g2_on_curve(h));
  EXPECT_TRUE(ctx_->g2_in_subgroup(h));
  Scalar a = ctx_->random_scalar(rng_);
  Scalar b = ctx_->random_scalar(rng_);
  Scalar sum = bigint::mod_wide(
      bigint::add(a.resized<13>(), b.resized<13>()), ctx_->r());
  EXPECT_TRUE(ctx_->g2_eq(ctx_->g2_add(ctx_->g2_mul(h, a), ctx_->g2_mul(h, b)),
                          ctx_->g2_mul(h, sum)));
}

TEST_F(Bls12Test, SecretLadderTimeDoesNotTrackScalarLength) {
  // g1_mul_secret and g2_mul_secret run a window count fixed by
  // max(|r|, |k|), so k = 1 runs as many windows as k = r - 1. A loop
  // sized by |k| alone ran 1 window against 64: 8-10x faster. What is
  // left (about 2.5x) is the early return on the point at infinity,
  // which makes k = 1's leading zero windows cheap; that leak is still
  // open. Fastest-of-11 interleaved batches keep host drift out of the
  // ratio.
  const Scalar one = Scalar::from_u64(1);
  const Scalar r_minus_1 = bigint::sub(ctx_->r(), one);
  const G1Point381& g = ctx_->g1_generator();
  const G2Point381& h = ctx_->g2_generator();
  EXPECT_TRUE(ctx_->g1_eq(ctx_->g1_mul_secret(g, one), g));
  EXPECT_TRUE(ctx_->g1_eq(ctx_->g1_mul_secret(g, r_minus_1), ctx_->g1_neg(g)));
  EXPECT_TRUE(ctx_->g2_eq(ctx_->g2_mul_secret(h, one), h));
  EXPECT_TRUE(ctx_->g2_eq(ctx_->g2_mul_secret(h, r_minus_1), ctx_->g2_neg(h)));

  // Fastest time for k = r - 1 over fastest time for k = 1.
  auto long_over_short = [&](auto&& mul) {
    using Clock = std::chrono::steady_clock;
    double best[2] = {1e300, 1e300};
    for (int batch = 0; batch < 11; ++batch) {
      for (int which = 0; which < 2; ++which) {
        const Scalar& k = which == 0 ? one : r_minus_1;
        const Clock::time_point t0 = Clock::now();
        for (int rep = 0; rep < 3; ++rep) mul(k);
        best[which] = std::min(
            best[which], std::chrono::duration<double>(Clock::now() - t0).count());
      }
    }
    return best[1] / best[0];
  };
  const double g1 = long_over_short([&](const Scalar& k) { (void)ctx_->g1_mul_secret(g, k); });
  const double g2 = long_over_short([&](const Scalar& k) { (void)ctx_->g2_mul_secret(h, k); });
  EXPECT_LT(g1, 4.0);
  EXPECT_LT(g2, 4.0);
}

TEST_F(Bls12Test, HashToG1) {
  G1Point381 p1 = ctx_->hash_to_g1(to_bytes("2030-01-01T00:00:00Z"));
  G1Point381 p2 = ctx_->hash_to_g1(to_bytes("2030-01-01T00:00:00Z"));
  G1Point381 p3 = ctx_->hash_to_g1(to_bytes("2030-01-01T00:00:01Z"));
  EXPECT_TRUE(ctx_->g1_eq(p1, p2));
  EXPECT_FALSE(ctx_->g1_eq(p1, p3));
  EXPECT_TRUE(ctx_->g1_in_subgroup(p1));
}

// --- G1 membership: the endomorphism test against the [r]P oracle -----------

// The definition of membership: on the curve and annihilated by r (the
// check g1_in_subgroup ran before it switched to φ(P) == −[z²]P).
bool in_subgroup_oracle(const Bls12Ctx& ctx, const G1Point381& p) {
  return ctx.g1_on_curve(p) && ctx.g1_mul(p, ctx.r()).inf;
}

// Points of E(F_p) from the encoding map WITHOUT cofactor clearing: with
// overwhelming probability each has a component of order dividing the
// cofactor (z−1)²/3, so it lies outside the order-r subgroup.
std::vector<G1Point381> raw_points(size_t count) {
  std::vector<G1Point381> out;
  for (std::uint32_t ctr = 0; out.size() < count; ++ctr) {
    Bytes h = hashing::oracle_bytes("bls12-raw-point", be32(ctr), 2 * Fq::kBytes);
    Fq x = Fq::from_bytes_wide(h);
    auto y = (x.squared() * x + Fq::from_u64(4)).sqrt();
    if (y) out.push_back(G1Point381{x, *y, false});
  }
  return out;
}

TEST_F(Bls12Test, G1MembershipMatchesTheROracle) {
  const Bls12Ctx& ctx = *ctx_;
  std::vector<G1Point381> members, outsiders;
  for (int i = 0; i < 6; ++i) {
    members.push_back(ctx.hash_to_g1(to_bytes("member-" + std::to_string(i))));
  }
  members.push_back(ctx.g1_generator());
  members.push_back(ctx.g1_infinity());
  for (const G1Point381& raw : raw_points(6)) {
    outsiders.push_back(raw);
    // [r]·P_raw: a pure cofactor-torsion point.
    outsiders.push_back(ctx.g1_mul(raw, ctx.r()));
    // A member plus torsion: the order-r part alone must not pass.
    outsiders.push_back(ctx.g1_add(members[0], ctx.g1_mul(raw, ctx.r())));
  }
  // The order-3 points (0, ±2): φ fixes them, −[z²] negates them.
  outsiders.push_back(G1Point381{Fq::zero(), Fq::from_u64(2), false});

  auto check = [&](const G1Point381& p, bool expected) {
    EXPECT_EQ(ctx.g1_in_subgroup(p), in_subgroup_oracle(ctx, p));
    EXPECT_EQ(ctx.g1_in_subgroup(p), expected);
    EXPECT_EQ(ctx.g1_in_subgroup(ctx.g1_neg(p)), in_subgroup_oracle(ctx, ctx.g1_neg(p)));
    EXPECT_EQ(ctx.g1_in_subgroup(ctx.g1_neg(p)), expected);
  };
  for (const G1Point381& p : members) check(p, true);
  for (const G1Point381& p : outsiders) {
    ASSERT_TRUE(ctx.g1_on_curve(p));
    ASSERT_FALSE(p.inf);
    check(p, false);
  }

  // Off-curve points are not members, whatever their multiples do.
  for (const G1Point381& p : {members[0], outsiders[0]}) {
    G1Point381 off{p.x, p.y + Fq::one(), false};
    ASSERT_FALSE(ctx.g1_on_curve(off));
    EXPECT_FALSE(ctx.g1_in_subgroup(off));
    EXPECT_FALSE(in_subgroup_oracle(ctx, off));
  }
}

TEST_F(Bls12Test, DecodersRejectOnCurvePointsOutsideTheSubgroup) {
  const Bls12Ctx& ctx = *ctx_;
  const std::string tag = "2030-01-01T00:00:00Z";
  for (const G1Point381& raw : raw_points(3)) {
    for (const G1Point381& rogue : {raw, ctx.g1_mul(raw, ctx.r())}) {
      Bytes compressed = ctx.g1_to_bytes(rogue);
      EXPECT_THROW(ctx.g1_from_bytes(compressed), Error);
      EXPECT_FALSE(wire::try_parse<Update381>(ctx, Update381{tag, rogue}.to_bytes())
                       .has_value());
      EXPECT_FALSE(
          wire::try_parse<Partial>(ctx, Partial{1, tag, rogue}.to_bytes()).has_value());
    }
  }
  // The same wire images carrying a member parse.
  G1Point381 member = ctx.hash_to_g1(to_bytes(tag));
  EXPECT_TRUE(ctx.g1_eq(ctx.g1_from_bytes(ctx.g1_to_bytes(member)), member));
  EXPECT_TRUE(
      wire::try_parse<Update381>(ctx, Update381{tag, member}.to_bytes()).has_value());
  EXPECT_TRUE(
      wire::try_parse<Partial>(ctx, Partial{1, tag, member}.to_bytes()).has_value());
}

TEST_F(Bls12Test, SerializationRoundtrips) {
  G1Point381 p = ctx_->hash_to_g1(to_bytes("ser"));
  EXPECT_TRUE(ctx_->g1_eq(ctx_->g1_from_bytes(ctx_->g1_to_bytes(p)), p));
  EXPECT_EQ(ctx_->g1_to_bytes(p).size(), 49u);

  G2Point381 q = ctx_->g2_mul(ctx_->g2_generator(), ctx_->random_scalar(rng_));
  EXPECT_TRUE(ctx_->g2_eq(ctx_->g2_from_bytes(ctx_->g2_to_bytes(q)), q));
  EXPECT_EQ(ctx_->g2_to_bytes(q).size(), 97u);

  EXPECT_TRUE(ctx_->g1_from_bytes(ctx_->g1_to_bytes(ctx_->g1_infinity())).inf);
}

TEST_F(Bls12Test, PairingBilinearity) {
  const G1Point381& g = ctx_->g1_generator();
  const G2Point381& h = ctx_->g2_generator();
  Gt381 e = ctx_->pair(g, h);
  EXPECT_FALSE(fp12_is_one(ctx_->tower(), e));  // non-degenerate

  Scalar a = ctx_->random_scalar(rng_);
  Scalar b = ctx_->random_scalar(rng_);
  Gt381 lhs = ctx_->pair(ctx_->g1_mul(g, a), ctx_->g2_mul(h, b));
  Gt381 rhs = ctx_->gt_pow(ctx_->gt_pow(e, a), b);
  EXPECT_TRUE(ctx_->gt_eq(lhs, rhs));

  // Swap sides: ê(aG, H) == ê(G, aH).
  EXPECT_TRUE(ctx_->gt_eq(ctx_->pair(ctx_->g1_mul(g, a), h),
                          ctx_->pair(g, ctx_->g2_mul(h, a))));
}

TEST_F(Bls12Test, PairingOrderAndIdentity) {
  Gt381 e = ctx_->pair(ctx_->g1_generator(), ctx_->g2_generator());
  EXPECT_TRUE(fp12_is_one(ctx_->tower(), ctx_->gt_pow(e, ctx_->r())));
  EXPECT_TRUE(fp12_is_one(ctx_->tower(),
                          ctx_->pair(ctx_->g1_infinity(), ctx_->g2_generator())));
}

TEST_F(Bls12Test, PairingsEqualHelper) {
  const G1Point381& g = ctx_->g1_generator();
  const G2Point381& h = ctx_->g2_generator();
  Scalar s = ctx_->random_scalar(rng_);
  // BLS verification shape: ê(s·H1(m), h) == ê(H1(m), s·h).
  G1Point381 hm = ctx_->hash_to_g1(to_bytes("message"));
  EXPECT_TRUE(ctx_->pairings_equal(ctx_->g1_mul(hm, s), h, hm, ctx_->g2_mul(h, s)));
  EXPECT_FALSE(ctx_->pairings_equal(ctx_->g1_mul(hm, s), h, hm, h));
  (void)g;
}

// --- Fq and Fq2 against the generic field layer on the same modulus ----------

// field::Fp over Bls12Ctx::fp() is the oracle: the same p, independent code.
// Values cross between the two through their canonical bytes.
field::Fp to_oracle(const FpCtx* fp, const Fq& a) {
  return field::Fp::from_bytes(fp, a.to_bytes());
}
field::Fp2 to_oracle(const FpCtx* fp, const Fq2& a) {
  return field::Fp2(to_oracle(fp, a.re()), to_oracle(fp, a.im()));
}
Fq from_int(const FpInt& v) { return Fq::from_bytes(v.to_bytes_be(Fq::kBytes)); }

// 0, 1, p − 1, (p − 1)/2 and random elements.
std::vector<Fq> sample_fq(const Bls12Ctx& ctx, hashing::RandomSource& rng) {
  const FpInt p_minus_1 = bigint::sub(ctx.p(), FpInt::from_u64(1));
  std::vector<Fq> out = {Fq::zero(), Fq::one(), from_int(p_minus_1),
                         from_int(bigint::shr(p_minus_1, 1))};
  for (int i = 0; i < 8; ++i) out.push_back(Fq::random(rng));
  return out;
}

TEST_F(Bls12Test, FqMatchesTheGenericField) {
  const FpCtx* fp = ctx_->fp();
  ASSERT_EQ(Fq::kModulus.resized<field::kMaxFieldLimbs>(), ctx_->p());
  const std::vector<Fq> xs = sample_fq(*ctx_, rng_);
  const FpInt p_minus_1 = bigint::sub(ctx_->p(), FpInt::from_u64(1));
  const std::vector<FpInt> exponents = {
      FpInt{}, FpInt::from_u64(1), FpInt::from_u64(2), FpInt::from_u64(5),
      FpInt::from_u64(0xffff), fp->sqrt_exponent, p_minus_1,
      bigint::random_bits<field::kMaxFieldLimbs>(rng_, 381)};
  size_t residues = 0, non_residues = 0;
  for (const Fq& a : xs) {
    const field::Fp fa = to_oracle(fp, a);
    EXPECT_EQ(a.to_int().resized<field::kMaxFieldLimbs>(), fa.to_int());
    EXPECT_EQ(a.to_bytes(), fa.to_bytes());
    EXPECT_EQ((-a).to_bytes(), (-fa).to_bytes());
    EXPECT_EQ(a.squared().to_bytes(), fa.squared().to_bytes());
    if (a.is_zero()) {
      EXPECT_THROW(a.inverse(), Error);
    } else {
      EXPECT_EQ(a.inverse().to_bytes(), fa.inverse().to_bytes());
    }
    for (const Fq& c : {a, a.squared()}) {
      const auto root = c.sqrt();
      const auto oracle_root = to_oracle(fp, c).sqrt();
      ASSERT_EQ(root.has_value(), oracle_root.has_value());
      if (root) {
        EXPECT_EQ(root->to_bytes(), oracle_root->to_bytes());
        ++residues;
      } else {
        ++non_residues;
      }
    }
    for (const FpInt& e : exponents) {
      EXPECT_EQ(a.pow(e).to_bytes(), fa.pow(e).to_bytes());
    }
    for (const Fq& b : xs) {
      const field::Fp fb = to_oracle(fp, b);
      EXPECT_EQ((a + b).to_bytes(), (fa + fb).to_bytes());
      EXPECT_EQ((a - b).to_bytes(), (fa - fb).to_bytes());
      EXPECT_EQ((a * b).to_bytes(), (fa * fb).to_bytes());
      EXPECT_EQ(a == b, fa == fb);
    }
  }
  EXPECT_GT(residues, 0u);
  EXPECT_GT(non_residues, 0u);  // p − 1 = −1 is one (p ≡ 3 mod 4)
}

TEST_F(Bls12Test, FqDecodingMatchesTheGenericField) {
  const FpCtx* fp = ctx_->fp();
  // Every wide length, random bytes and all-ones bytes.
  for (size_t len = 0; len <= 2 * Fq::kBytes; ++len) {
    for (const Bytes& in : {rng_.bytes(len), Bytes(len, 0xff)}) {
      EXPECT_EQ(Fq::from_bytes_wide(in).to_bytes(),
                field::Fp::from_bytes_wide(fp, in).to_bytes())
          << "length " << len;
    }
  }
  EXPECT_THROW(Fq::from_bytes_wide(Bytes(2 * Fq::kBytes + 1, 0)), Error);

  // Canonical decoding takes exactly the values below p.
  const FpInt p = ctx_->p();
  const FpInt p_minus_1 = bigint::sub(p, FpInt::from_u64(1));
  const Bytes reduced = p_minus_1.to_bytes_be(Fq::kBytes);
  EXPECT_EQ(Fq::from_bytes(reduced).to_bytes(), reduced);
  EXPECT_EQ(Fq::from_bytes(reduced), -Fq::one());
  for (const Bytes& unreduced :
       {p.to_bytes_be(Fq::kBytes), bigint::add(p, FpInt::from_u64(1)).to_bytes_be(Fq::kBytes),
        Bytes(Fq::kBytes, 0xff)}) {
    EXPECT_THROW(Fq::from_bytes(unreduced), Error);
    EXPECT_THROW(field::Fp::from_bytes(fp, unreduced), Error);
  }
  EXPECT_THROW(Fq::from_bytes(Bytes(Fq::kBytes - 1, 0)), Error);
  EXPECT_THROW(Fq::from_bytes(Bytes(Fq::kBytes + 1, 0)), Error);
}

TEST_F(Bls12Test, Fq2MatchesTheGenericField) {
  const FpCtx* fp = ctx_->fp();
  const std::vector<Fq> base = sample_fq(*ctx_, rng_);
  std::vector<Fq2> xs = {Fq2::zero(), Fq2::one(), Fq2(Fq::zero(), Fq::one())};
  for (size_t i = 0; i < base.size(); ++i) {
    xs.push_back(Fq2(base[i], base[(i * 5 + 3) % base.size()]));
  }
  const std::vector<FpInt> exponents = {FpInt{}, FpInt::from_u64(1), FpInt::from_u64(7),
                                        bigint::random_bits<field::kMaxFieldLimbs>(rng_, 381)};
  size_t residues = 0, non_residues = 0;
  for (const Fq2& a : xs) {
    const field::Fp2 fa = to_oracle(fp, a);
    EXPECT_EQ(a.to_bytes(), fa.to_bytes());
    EXPECT_EQ(Fq2::from_bytes(a.to_bytes()), a);
    EXPECT_EQ((-a).to_bytes(), (-fa).to_bytes());
    EXPECT_EQ(a.squared().to_bytes(), fa.squared().to_bytes());
    EXPECT_EQ(a.conjugate().to_bytes(), fa.conjugate().to_bytes());
    EXPECT_EQ(a.norm().to_bytes(), fa.norm().to_bytes());
    EXPECT_EQ(a.is_one(), fa.is_one());
    if (a.is_zero()) {
      EXPECT_THROW(a.inverse(), Error);
    } else {
      EXPECT_EQ(a.inverse().to_bytes(), fa.inverse().to_bytes());
    }
    for (const Fq2& c : {a, a.squared()}) {
      const auto root = c.sqrt();
      const auto oracle_root = to_oracle(fp, c).sqrt();
      ASSERT_EQ(root.has_value(), oracle_root.has_value());
      if (root) {
        EXPECT_EQ(root->to_bytes(), oracle_root->to_bytes());
        ++residues;
      } else {
        ++non_residues;
      }
    }
    for (const FpInt& e : exponents) {
      EXPECT_EQ(a.pow(e).to_bytes(), fa.pow(e).to_bytes());
    }
    for (const Fq2& b : xs) {
      const field::Fp2 fb = to_oracle(fp, b);
      EXPECT_EQ((a + b).to_bytes(), (fa + fb).to_bytes());
      EXPECT_EQ((a - b).to_bytes(), (fa - fb).to_bytes());
      EXPECT_EQ((a * b).to_bytes(), (fa * fb).to_bytes());
      EXPECT_EQ(a.scale(b.re()).to_bytes(), fa.scale(fb.re()).to_bytes());
    }
  }
  EXPECT_GT(residues, 0u);
  EXPECT_GT(non_residues, 0u);
}

TEST_F(Bls12Test, CyclotomicSquaringMatchesSquaringOnFinalExpOutputs) {
  const TowerCtx& t = ctx_->tower();
  std::vector<Fp12> outputs = {ctx_->pair(ctx_->g1_generator(), ctx_->g2_generator())};
  for (int i = 0; i < 3; ++i) outputs.push_back(ctx_->final_exponentiation(random_fp12()));
  for (Fp12 g : outputs) {
    // Along a chain of squarings, which stays in the cyclotomic subgroup.
    for (int k = 0; k < 4; ++k) {
      const Fp12 sq = fp12_sqr(t, g);
      EXPECT_TRUE(fp12_eq(fp12_cyclotomic_sqr(t, g), sq));
      g = sq;
    }
  }
}

TEST_F(Bls12Test, GtPowUnitaryMatchesGtPow) {
  const Gt381 e = ctx_->pair(ctx_->hash_to_g1(to_bytes("gt-pow")), ctx_->g2_generator());
  const Scalar r_minus_1 = bigint::sub(ctx_->r(), Scalar::from_u64(1));
  std::vector<Scalar> exponents = {Scalar{}, Scalar::from_u64(1), r_minus_1};
  for (int i = 0; i < 3; ++i) {
    exponents.push_back(bigint::random_bits<field::kMaxFieldLimbs>(rng_, 255));
  }
  exponents.push_back(ctx_->random_scalar(rng_));
  for (const Scalar& k : exponents) {
    EXPECT_TRUE(ctx_->gt_eq(ctx_->gt_pow_unitary(e, k), ctx_->gt_pow(e, k)));
  }
  // e^(r−1) = e⁻¹, which on G_T is the conjugate.
  EXPECT_TRUE(ctx_->gt_eq(ctx_->gt_pow_unitary(e, r_minus_1), fp12_conjugate(e)));
}

TEST_F(Bls12Test, DecodersRejectMalformedInfinity) {
  const Bls12Ctx& ctx = *ctx_;
  const std::string tag = "2030-01-01T00:00:00Z";
  // The one encoding of O: tag 0x00 and a zero payload. It decodes and
  // re-encodes to itself, bare and inside an update or a partial.
  const Bytes g1_inf = ctx.g1_to_bytes(ctx.g1_infinity());
  const Bytes g2_inf = ctx.g2_to_bytes(ctx.g2_infinity());
  ASSERT_EQ(g1_inf, Bytes(49, 0));
  ASSERT_EQ(g2_inf, Bytes(97, 0));
  EXPECT_TRUE(ctx.g1_from_bytes(g1_inf).inf);
  EXPECT_EQ(ctx.g1_to_bytes(ctx.g1_from_bytes(g1_inf)), g1_inf);
  EXPECT_TRUE(ctx.g2_from_bytes(g2_inf).inf);
  EXPECT_EQ(ctx.g2_to_bytes(ctx.g2_from_bytes(g2_inf)), g2_inf);
  const Bytes update = Update381{tag, ctx.g1_infinity()}.to_bytes();
  const Bytes partial = Partial{1, tag, ctx.g1_infinity()}.to_bytes();
  ASSERT_TRUE(wire::try_parse<Update381>(ctx, update).has_value());
  EXPECT_EQ(wire::try_parse<Update381>(ctx, update)->to_bytes(), update);
  ASSERT_TRUE(wire::try_parse<Partial>(ctx, partial).has_value());
  EXPECT_EQ(wire::try_parse<Partial>(ctx, partial)->to_bytes(), partial);

  // Any nonzero byte after the 0x00 tag is malformed. The point is the
  // last 49 bytes of an update or a partial.
  for (size_t pos : {size_t{1}, size_t{17}, size_t{48}}) {
    for (std::uint8_t junk : {std::uint8_t{0x01}, std::uint8_t{0xab}, std::uint8_t{0xff}}) {
      Bytes bad = g1_inf;
      bad[pos] = junk;
      EXPECT_THROW(ctx.g1_from_bytes(bad), Error);
      Bytes bad_update = update;
      bad_update[update.size() - g1_inf.size() + pos] = junk;
      EXPECT_FALSE(wire::try_parse<Update381>(ctx, bad_update).has_value());
      Bytes bad_partial = partial;
      bad_partial[partial.size() - g1_inf.size() + pos] = junk;
      EXPECT_FALSE(wire::try_parse<Partial>(ctx, bad_partial).has_value());
    }
  }
  for (size_t pos : {size_t{1}, size_t{48}, size_t{49}, size_t{96}}) {
    Bytes bad = g2_inf;
    bad[pos] = 0xcd;
    EXPECT_THROW(ctx.g2_from_bytes(bad), Error);
  }
}

// --- The TRE scheme on BLS12-381 (tlock layout) ---------------------------------

class Tre381Test : public ::testing::Test {
 protected:
  Tre381Test()
      : scheme_(make_tre381()),
        rng_(to_bytes("tre381-tests")),
        server_(scheme_.server_keygen(rng_)),
        user_(scheme_.user_keygen(server_.pub, rng_)) {}

  Tre381Scheme scheme_;
  hashing::HmacDrbg rng_;
  ServerKey381 server_;
  UserKey381 user_;
};

TEST_F(Tre381Test, KeysAndUpdatesVerify) {
  EXPECT_TRUE(scheme_.verify_server_public_key(server_.pub));
  EXPECT_TRUE(scheme_.verify_user_public_key(server_.pub, user_.pub));
  Update381 upd = scheme_.issue_update(server_, "2030-01-01T00:00:00Z");
  EXPECT_TRUE(scheme_.verify_update(server_.pub, upd));
  // Forgeries rejected.
  Update381 relabeled{"2031-01-01T00:00:00Z", upd.sig};
  EXPECT_FALSE(scheme_.verify_update(server_.pub, relabeled));
  UserKey381 eve = scheme_.user_keygen(server_.pub, rng_);
  UserPublicKey381 mixed{user_.pub.ag, eve.pub.asg};
  EXPECT_FALSE(scheme_.verify_user_public_key(server_.pub, mixed));
}

TEST_F(Tre381Test, UserKeygenAnchorTakesTheSecretLadder) {
  // A1 = a·G1gen multiplies the user's long-term secret: it must run on
  // the constant-pattern ladder, counted as one varying-base multiply
  // (A2 = a·S goes through the comb and is counted there).
  obs::Registry& g = obs::Registry::global();
  const std::uint64_t before = g.counter_value("core.bls381.mul.varying_base");
  UserKey381 eve = scheme_.user_keygen(server_.pub, rng_);
  EXPECT_EQ(g.counter_value("core.bls381.mul.varying_base") - before, 1u);
  const Bls12Ctx& ctx = scheme_.params();
  EXPECT_TRUE(ctx.g1_eq(eve.pub.ag, ctx.g1_mul(ctx.g1_generator(), eve.a)));
}

TEST_F(Tre381Test, RoundtripAndTimeLock) {
  Bytes msg = to_bytes("tlock-style timed release");
  auto ct = scheme_.seal(core::Mode::kBasic, msg, user_.pub, server_.pub,
                         "2030-01-01T00:00:00Z", rng_);
  Update381 upd = scheme_.issue_update(server_, "2030-01-01T00:00:00Z");
  EXPECT_EQ(scheme_.open(ct, user_.a, upd, server_.pub), msg);

  // Wrong update or wrong secret yields garbage.
  Update381 early = scheme_.issue_update(server_, "2029-12-31T23:59:59Z");
  EXPECT_NE(scheme_.open(ct, user_.a, early, server_.pub), msg);
  UserKey381 eve = scheme_.user_keygen(server_.pub, rng_);
  EXPECT_NE(scheme_.open(ct, eve.a, upd, server_.pub), msg);
}

TEST_F(Tre381Test, UpdatesAreShorterThanThe2005Curve) {
  // 48-byte G1 x-coordinates at ~128-bit security vs 64-byte at ~80-bit.
  EXPECT_EQ(Bls381Backend::gu_wire_bytes(*Bls12Ctx::get()), 49u);
  EXPECT_EQ(Bls381Backend::gh_wire_bytes(*Bls12Ctx::get()), 97u);
  const std::string tag = "2030-01-01T00:00:00Z";
  Update381 upd = scheme_.issue_update(server_, tag);
  EXPECT_EQ(upd.to_bytes().size(), 2 + tag.size() + 49);
}

TEST_F(Tre381Test, FoRoundtripAndTamperRejection) {
  Bytes msg = to_bytes("cca on the modern curve");
  auto ct = scheme_.seal(core::Mode::kFo, msg, user_.pub, server_.pub,
                         "2030-01-01T00:00:00Z", rng_);
  Update381 upd = scheme_.issue_update(server_, "2030-01-01T00:00:00Z");
  auto out = scheme_.open(ct, user_.a, upd, server_.pub);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, msg);
  std::get<FoCiphertext381>(ct.body).c_msg[0] ^= 1;
  EXPECT_FALSE(scheme_.open(ct, user_.a, upd, server_.pub).has_value());
}

TEST_F(Tre381Test, WireRoundtrips) {
  const Bls12Ctx& ctx = scheme_.params();
  Update381 upd = scheme_.issue_update(server_, "2030-01-01T00:00:00Z");
  Update381 upd2 = Update381::from_bytes(ctx, upd.to_bytes());
  EXPECT_EQ(upd2.tag, upd.tag);
  EXPECT_TRUE(ctx.g1_eq(upd2.sig, upd.sig));

  Bytes msg = to_bytes("wire");
  auto ct = scheme_.seal(core::Mode::kBasic, msg, user_.pub, server_.pub, "T", rng_);
  auto ct2 = SealedCiphertext381::from_bytes(ctx, ct.to_bytes());
  Update381 updt = scheme_.issue_update(server_, "T");
  EXPECT_EQ(scheme_.open(ct2, user_.a, updt, server_.pub), msg);

  Bytes wire = upd.to_bytes();
  EXPECT_THROW(Update381::from_bytes(ctx, ByteSpan(wire.data(), wire.size() - 1)),
               Error);
  // The non-throwing parse returns nullopt on the same input.
  EXPECT_FALSE(
      wire::try_parse<Update381>(ctx, ByteSpan(wire.data(), wire.size() - 1))
          .has_value());
  ASSERT_TRUE(wire::try_parse<Update381>(ctx, wire).has_value());
}


// --- drand-shaped threshold network on BLS12-381 ---------------------------------

TEST(Threshold381Test, ThreeOfFiveEndToEnd) {
  threshold::BasicThresholdScheme<Bls381Backend> net(Bls12Ctx::get());
  Tre381Scheme scheme = make_tre381();
  auto ctx = Bls12Ctx::get();
  hashing::HmacDrbg rng(to_bytes("threshold381-tests"));
  auto [key, shares] = net.setup({5, 3}, rng);

  // User binds to the group key (seen as an ordinary server key over the
  // fixed G_2 generator); the sharing is invisible.
  ServerPublicKey381 group = key.as_server_public_key();
  UserKey381 user = scheme.user_keygen(group, rng);
  Bytes msg = to_bytes("released by the network");
  auto ct = scheme.seal(core::Mode::kBasic, msg, user.pub, group, "round-12345", rng);

  // Operators 1, 3, 5 publish partials; 4 is corrupt.
  std::vector<Partial> partials = {net.issue_partial(shares[0], "round-12345"),
                                   net.issue_partial(shares[2], "round-12345"),
                                   net.issue_partial(shares[4], "round-12345")};
  for (const auto& p : partials) EXPECT_TRUE(net.verify_partial(key, p));
  Partial corrupt = net.issue_partial(shares[3], "round-12345");
  corrupt.sig = ctx->g1_add(corrupt.sig, corrupt.sig);
  EXPECT_FALSE(net.verify_partial(key, corrupt));

  Update381 update = net.combine(key, partials);
  EXPECT_TRUE(scheme.verify_update(group, update));
  EXPECT_EQ(scheme.open(ct, user.a, update, group), msg);

  // Any other k-subset combines to the identical update.
  std::vector<Partial> other = {net.issue_partial(shares[1], "round-12345"),
                                net.issue_partial(shares[3], "round-12345"),
                                net.issue_partial(shares[0], "round-12345")};
  Update381 update2 = net.combine(key, other);
  EXPECT_TRUE(ctx->g1_eq(update.sig, update2.sig));

  // Below threshold fails.
  std::vector<Partial> two(partials.begin(), partials.begin() + 2);
  EXPECT_THROW(net.combine(key, two), Error);
}

}  // namespace
}  // namespace tre::bls12
