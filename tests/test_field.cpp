// Field axioms and square-root behaviour for F_p and F_p2.
#include "field/fp.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "bigint/prime.h"
#include "bls12/bls12.h"
#include "field/fp2.h"
#include "hashing/drbg.h"
#include "params/params.h"

namespace tre::field {
namespace {

// 96-bit toy prime p = 12*q*r - 1 (p ≡ 3 mod 4).
const char* kToyP = "9b725bbc4bc00b0f29aea58f";

class FpTest : public ::testing::Test {
 protected:
  FpTest() : ctx_(FpInt::from_hex(kToyP)), rng_(to_bytes("field-tests")) {}

  /// The base fields of the three type-1 parameter sets and both
  /// BLS12-381 fields: 2, 8, 12, 6 and 4 active limbs, so the fixed CIOS
  /// kernels and the runtime-bounded one (12 limbs) are all covered.
  static std::vector<std::pair<const char*, const FpCtx*>> fields() {
    static const auto toy = params::load("tre-toy-96");
    static const auto t512 = params::load("tre-512");
    static const auto t768 = params::load("tre-768");
    static const auto bls = bls12::Bls12Ctx::get();
    return {{"tre-toy-96", toy->curve->fp.get()},
            {"tre-512", t512->curve->fp.get()},
            {"tre-768", t768->curve->fp.get()},
            {"bls12-381 p", bls->fp()},
            {"bls12-381 r", bls->fr()}};
  }

  FpCtx ctx_;
  hashing::HmacDrbg rng_;
};

TEST_F(FpTest, ConstantsAndConversions) {
  EXPECT_TRUE(Fp::zero(&ctx_).is_zero());
  EXPECT_FALSE(Fp::one(&ctx_).is_zero());
  EXPECT_EQ(Fp::from_u64(&ctx_, 42).to_int(), FpInt::from_u64(42));
  // Reduction of values >= p.
  FpInt big = bigint::add(ctx_.p, FpInt::from_u64(5));
  EXPECT_EQ(Fp::from_int(&ctx_, big), Fp::from_u64(&ctx_, 5));
}

TEST_F(FpTest, BytesRoundtrip) {
  Fp a = Fp::random(&ctx_, rng_);
  EXPECT_EQ(Fp::from_bytes(&ctx_, a.to_bytes()), a);
  EXPECT_EQ(a.to_bytes().size(), ctx_.byte_len);
  // Unreduced canonical input is rejected.
  Bytes pb = ctx_.p.to_bytes_be(ctx_.byte_len);
  EXPECT_THROW(Fp::from_bytes(&ctx_, pb), Error);
}

TEST_F(FpTest, FromBytesWideReduces) {
  Bytes wide(2 * ctx_.byte_len, 0xff);
  Fp v = Fp::from_bytes_wide(&ctx_, wide);
  EXPECT_LT(v.to_int(), ctx_.p);

  // The Montgomery Horner reduction is bit-identical to the bit-serial
  // reference (long division, then Montgomery form) on every length from
  // 0 to 2·byte_len and at the cap, for random, all-0xff and all-zero input.
  const size_t kCap = 2 * 8 * kMaxFieldLimbs;
  for (const auto& [name, fp] : fields()) {
    std::vector<size_t> lengths;
    for (size_t n = 0; n <= 2 * fp->byte_len; ++n) lengths.push_back(n);
    lengths.push_back(kCap);
    for (size_t n : lengths) {
      for (const Bytes& in : {rng_.bytes(n), Bytes(n, 0xff), Bytes(n, 0x00)}) {
        FpInt expected = bigint::mod_wide(
            bigint::BigInt<2 * kMaxFieldLimbs>::from_bytes_be(in), fp->p);
        EXPECT_TRUE(Fp::from_bytes_wide(fp, in) == Fp::from_int(fp, expected))
            << name << ", " << n << " bytes";
      }
    }
  }
  EXPECT_THROW(Fp::from_bytes_wide(&ctx_, Bytes(kCap + 1, 0)), Error);
}

TEST_F(FpTest, FieldAxioms) {
  for (int i = 0; i < 25; ++i) {
    Fp a = Fp::random(&ctx_, rng_);
    Fp b = Fp::random(&ctx_, rng_);
    Fp c = Fp::random(&ctx_, rng_);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a + Fp::zero(&ctx_), a);
    EXPECT_EQ(a * Fp::one(&ctx_), a);
    EXPECT_EQ(a + (-a), Fp::zero(&ctx_));
    EXPECT_EQ(a - b, a + (-b));
    EXPECT_EQ(a.squared(), a * a);
    EXPECT_EQ(a.doubled(), a + a);
    if (!a.is_zero()) {
      EXPECT_EQ(a * a.inverse(), Fp::one(&ctx_));
    }
  }
}

TEST_F(FpTest, InverseOfZeroThrows) {
  EXPECT_THROW(Fp::zero(&ctx_).inverse(), Error);
}

TEST_F(FpTest, PowMatchesRepeatedMul) {
  Fp a = Fp::random(&ctx_, rng_);
  Fp acc = Fp::one(&ctx_);
  for (std::uint64_t e = 0; e < 20; ++e) {
    EXPECT_EQ(a.pow(FpInt::from_u64(e)), acc);
    acc = acc * a;
  }
}

// The sliding-window Fp::pow against plain square-and-multiply on
// every parameter set's fields: each short exponent (the table trims to
// what exponents below 4 bits reach), the square-root and Fermat
// exponents, and random ones up to the full 768-bit exponent width.
TEST_F(FpTest, PowMatchesSquareAndMultiply) {
  auto reference = [](const Fp& a, const FpInt& e) {
    Fp acc = Fp::one(a.ctx());
    for (size_t i = e.bit_length(); i-- > 0;) {
      acc = acc.squared();
      if (e.bit(i)) acc = acc * a;
    }
    return acc;
  };
  for (const auto& [name, fp] : fields()) {
    std::vector<FpInt> exponents;
    for (std::uint64_t e = 0; e <= 70; ++e) exponents.push_back(FpInt::from_u64(e));
    exponents.push_back(bigint::shr(bigint::add(fp->p, FpInt::from_u64(1)), 2));
    exponents.push_back(bigint::sub(fp->p, FpInt::from_u64(1)));
    for (int i = 0; i < 4; ++i) {
      exponents.push_back(bigint::random_below(rng_, fp->p));
      exponents.push_back(FpInt::from_bytes_be(rng_.bytes(8 * kMaxFieldLimbs)));
    }
    for (const Fp& a : {Fp::random(fp, rng_), Fp::zero(fp), Fp::one(fp)}) {
      for (const FpInt& e : exponents) {
        EXPECT_TRUE(a.pow(e) == reference(a, e)) << name << ", e = " << e.to_hex();
      }
    }
  }
}

TEST_F(FpTest, FermatLittleTheorem) {
  FpInt p_minus_1 = bigint::sub(ctx_.p, FpInt::from_u64(1));
  for (int i = 0; i < 5; ++i) {
    Fp a = Fp::random(&ctx_, rng_);
    if (a.is_zero()) continue;
    EXPECT_EQ(a.pow(p_minus_1), Fp::one(&ctx_));
  }
}

TEST_F(FpTest, SqrtOfSquares) {
  for (int i = 0; i < 25; ++i) {
    Fp a = Fp::random(&ctx_, rng_);
    Fp sq = a.squared();
    auto root = sq.sqrt();
    ASSERT_TRUE(root.has_value());
    EXPECT_TRUE(*root == a || *root == -a);
  }
}

TEST_F(FpTest, SqrtOfNonResidueFails) {
  // -1 is a non-residue when p ≡ 3 (mod 4).
  EXPECT_FALSE((-Fp::one(&ctx_)).sqrt().has_value());
}

TEST_F(FpTest, ContextMismatchThrows) {
  FpCtx other(FpInt::from_hex("fa08d6af57"));
  Fp a = Fp::one(&ctx_);
  Fp b = Fp::one(&other);
  EXPECT_THROW(a + b, Error);
  EXPECT_THROW(a * b, Error);
}

// ---------------------------------------------------------------------------

class Fp2Test : public FpTest {};

TEST_F(Fp2Test, ConstantsAndEmbedding) {
  EXPECT_TRUE(Fp2::zero(&ctx_).is_zero());
  EXPECT_TRUE(Fp2::one(&ctx_).is_one());
  Fp a = Fp::random(&ctx_, rng_);
  Fp2 e = Fp2::from_fp(a);
  EXPECT_EQ(e.re(), a);
  EXPECT_TRUE(e.im().is_zero());
}

TEST_F(Fp2Test, ISquaredIsMinusOne) {
  Fp2 i(Fp::zero(&ctx_), Fp::one(&ctx_));
  EXPECT_EQ(i.squared(), -Fp2::one(&ctx_));
  EXPECT_EQ(i * i, -Fp2::one(&ctx_));
}

TEST_F(Fp2Test, FieldAxioms) {
  auto rand2 = [&] { return Fp2(Fp::random(&ctx_, rng_), Fp::random(&ctx_, rng_)); };
  for (int i = 0; i < 25; ++i) {
    Fp2 a = rand2(), b = rand2(), c = rand2();
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a.squared(), a * a);
    if (!a.is_zero()) {
      EXPECT_EQ(a * a.inverse(), Fp2::one(&ctx_));
    }
  }
}

TEST_F(Fp2Test, ConjugationIsFrobenius) {
  // z^p == conj(z) for all z in F_p2 when p ≡ 3 (mod 4).
  Fp2 z(Fp::random(&ctx_, rng_), Fp::random(&ctx_, rng_));
  EXPECT_EQ(z.pow(ctx_.p), z.conjugate());
}

TEST_F(Fp2Test, NormMultiplicative) {
  Fp2 a(Fp::random(&ctx_, rng_), Fp::random(&ctx_, rng_));
  Fp2 b(Fp::random(&ctx_, rng_), Fp::random(&ctx_, rng_));
  EXPECT_EQ((a * b).norm(), a.norm() * b.norm());
}

TEST_F(Fp2Test, UnitaryInverseOnNormOne) {
  // Build a norm-1 element z = w^(p-1) and check conj == inverse.
  Fp2 w(Fp::random(&ctx_, rng_), Fp::random(&ctx_, rng_));
  Fp2 z = w.conjugate() * w.inverse();
  EXPECT_EQ(z.norm(), Fp::one(&ctx_));
  EXPECT_EQ(z * z.unitary_inverse(), Fp2::one(&ctx_));
}

TEST_F(Fp2Test, PowLaws) {
  Fp2 a(Fp::random(&ctx_, rng_), Fp::random(&ctx_, rng_));
  FpInt e1 = FpInt::from_u64(12345);
  FpInt e2 = FpInt::from_u64(6789);
  EXPECT_EQ(a.pow(e1) * a.pow(e2), a.pow(bigint::add(e1, e2)));
  EXPECT_EQ(a.pow(FpInt{}), Fp2::one(&ctx_));
}

TEST_F(Fp2Test, BytesRoundtrip) {
  Fp2 a(Fp::random(&ctx_, rng_), Fp::random(&ctx_, rng_));
  EXPECT_EQ(Fp2::from_bytes(&ctx_, a.to_bytes()), a);
  EXPECT_EQ(a.to_bytes().size(), 2 * ctx_.byte_len);
}

}  // namespace
}  // namespace tre::field
