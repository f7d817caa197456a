// Equivalence tests for the scalar-multiplication engine: every fast path
// (wNAF mul, fixed-window mul_secret, Lim-Lee comb, windowed / unitary
// F_p2 exponentiation) must agree bit-for-bit with a naive reference on
// random inputs and on the boundary scalars 0, 1, 2, q-1, q, q+1.
#include "ec/curve.h"

#include <gtest/gtest.h>

#include "field/fp2.h"
#include "hashing/kdf.h"

namespace tre::ec {
namespace {

using field::Fp;
using field::Fp2;
using field::FpInt;

/// Textbook affine double-and-add, the legacy reference all fast paths
/// are measured against.
G1Point naive_mul(const G1Point& p, FpInt k) {
  G1Point acc = G1Point::infinity(p.curve());
  G1Point base = p;
  while (!k.is_zero()) {
    if (k.is_odd()) acc = acc + base;
    base = base.doubled();
    k = bigint::shr(k, 1);
  }
  return acc;
}

class ScalarMulTest : public ::testing::Test {
 protected:
  ScalarMulTest()
      : curve_(CurveCtx::create("toy", FpInt::from_hex("9b725bbc4bc00b0f29aea58f"),
                                FpInt::from_hex("fa08d6af57"))) {}

  G1Point random_point(int i) {
    return hash_to_g1(curve_.get(), to_bytes("smul-point" + std::to_string(i)));
  }

  FpInt random_scalar(int i) {
    Bytes wide = hashing::oracle_bytes("smul-scalar",
                                       to_bytes(std::to_string(i)), 24);
    auto v = bigint::BigInt<2 * field::kMaxFieldLimbs>::from_bytes_be(wide);
    return bigint::mod_wide(v, curve_->q);
  }

  std::vector<FpInt> edge_scalars() const {
    const FpInt& q = curve_->q;
    return {FpInt{},
            FpInt::from_u64(1),
            FpInt::from_u64(2),
            bigint::sub(q, FpInt::from_u64(1)),
            q,
            bigint::add(q, FpInt::from_u64(1))};
  }

  std::shared_ptr<const CurveCtx> curve_;
};

TEST_F(ScalarMulTest, WnafMulMatchesNaive) {
  for (int i = 0; i < 20; ++i) {
    G1Point p = random_point(i);
    FpInt k = random_scalar(i);
    EXPECT_EQ(p.mul(k), naive_mul(p, k)) << "scalar #" << i;
  }
}

TEST_F(ScalarMulTest, SecretLadderMatchesNaive) {
  for (int i = 0; i < 20; ++i) {
    G1Point p = random_point(i);
    FpInt k = random_scalar(i);
    EXPECT_EQ(p.mul_secret(k), naive_mul(p, k)) << "scalar #" << i;
  }
}

TEST_F(ScalarMulTest, CombMatchesNaive) {
  G1Point p = random_point(0);
  G1Precomp comb(p);
  for (int i = 0; i < 20; ++i) {
    FpInt k = random_scalar(i);
    G1Point expected = naive_mul(p, k);
    EXPECT_EQ(comb.mul(k), expected) << "scalar #" << i;
    EXPECT_EQ(comb.mul_secret(k), expected) << "scalar #" << i;
  }
}

TEST_F(ScalarMulTest, EdgeScalars) {
  G1Point p = random_point(1);
  G1Precomp comb(p);
  for (const FpInt& k : edge_scalars()) {
    G1Point expected = naive_mul(p, k);
    EXPECT_EQ(p.mul(k), expected);
    EXPECT_EQ(p.mul_secret(k), expected);
    EXPECT_EQ(comb.mul(k), expected);
    EXPECT_EQ(comb.mul_secret(k), expected);
  }
  // q·P == O for a subgroup point: explicit order check.
  EXPECT_TRUE(p.mul(curve_->q).is_infinity());
  EXPECT_TRUE(comb.mul_secret(curve_->q).is_infinity());
}

TEST_F(ScalarMulTest, CombFallsBackBeyondCoveredWidth) {
  G1Point p = random_point(2);
  G1Precomp comb(p);
  // 2q is one bit wider than the comb covers; the fallback must still be
  // exact (and equal the reduced multiple, since p has order q).
  FpInt wide = bigint::add(curve_->q, curve_->q);
  ASSERT_GT(wide.bit_length(), comb.covered_bits());
  EXPECT_EQ(comb.mul(wide), naive_mul(p, wide));
  EXPECT_EQ(comb.mul_secret(wide), naive_mul(p, wide));
}

TEST_F(ScalarMulTest, TwoTorsionPoint) {
  // (-1, 0) is the 2-torsion point of y^2 = x^3 + 1: outside G_1, so the
  // comb refuses it, but the generic ladders must still follow the group
  // law (k·P is P for odd k, O for even k).
  const field::FpCtx* fp = curve_->fp.get();
  G1Point t = G1Point::make(curve_.get(), -Fp::one(fp), Fp::zero(fp));
  ASSERT_FALSE(t.in_subgroup());
  EXPECT_TRUE(t.doubled().is_infinity());
  for (const FpInt& k : edge_scalars()) {
    G1Point expected = k.is_odd() ? t : G1Point::infinity(curve_.get());
    EXPECT_EQ(t.mul(k), expected);
    EXPECT_EQ(t.mul_secret(k), expected);
  }
  EXPECT_THROW(G1Precomp comb(t), Error);
}

TEST_F(ScalarMulTest, InfinityBase) {
  G1Point o = G1Point::infinity(curve_.get());
  EXPECT_TRUE(o.mul(random_scalar(3)).is_infinity());
  EXPECT_TRUE(o.mul_secret(random_scalar(3)).is_infinity());
}

// --- F_p2 exponentiation ----------------------------------------------------

TEST_F(ScalarMulTest, Fp2WindowPowMatchesBinary) {
  const field::FpCtx* fp = curve_->fp.get();
  for (int i = 0; i < 10; ++i) {
    Fp2 z(Fp::from_bytes_wide(fp, hashing::oracle_bytes(
                                      "smul-fp2a", to_bytes(std::to_string(i)), 24)),
          Fp::from_bytes_wide(fp, hashing::oracle_bytes(
                                      "smul-fp2b", to_bytes(std::to_string(i)), 24)));
    FpInt e = random_scalar(100 + i);
    EXPECT_EQ(z.pow(e), z.pow_binary(e)) << "exponent #" << i;
    EXPECT_EQ(z.pow(FpInt{}), Fp2::one(fp));
    EXPECT_EQ(z.pow(FpInt::from_u64(1)), z);
  }
}

TEST_F(ScalarMulTest, Fp2UnitaryPowMatchesBinaryOnNormOne) {
  const field::FpCtx* fp = curve_->fp.get();
  for (int i = 0; i < 10; ++i) {
    Fp2 z(Fp::from_bytes_wide(fp, hashing::oracle_bytes(
                                      "smul-fp2u", to_bytes(std::to_string(i)), 24)),
          Fp::from_bytes_wide(fp, hashing::oracle_bytes(
                                      "smul-fp2v", to_bytes(std::to_string(i)), 24)));
    ASSERT_FALSE(z.is_zero());
    Fp2 u = z.conjugate() * z.inverse();  // norm(u) == 1 by multiplicativity
    ASSERT_EQ(u.norm(), Fp::one(fp));
    for (const FpInt& e : edge_scalars()) {
      EXPECT_EQ(u.pow_unitary(e), u.pow_binary(e));
    }
    EXPECT_EQ(u.pow_unitary(random_scalar(200 + i)),
              u.pow_binary(random_scalar(200 + i)));
  }
}

TEST_F(ScalarMulTest, Fp2UnitaryPowRejectsNonUnitary) {
  const field::FpCtx* fp = curve_->fp.get();
  Fp2 z(Fp::from_u64(fp, 7), Fp::from_u64(fp, 11));
  ASSERT_NE(z.norm(), Fp::one(fp));
  EXPECT_THROW(z.pow_unitary(FpInt::from_u64(5)), Error);
}

// --- multi-exponentiation against the naive sum -----------------------------
//
// The parity the engine's header promises: the signed-digit Pippenger
// fold (src/ec/multiexp.h) must agree with the naive per-point reference
// on random batches AND on every carry-propagation edge (all-ones digits,
// top-window borrow, q-sized scalars).

TEST_F(ScalarMulTest, MultiexpMatchesNaiveSum) {
  for (size_t n : {size_t{1}, size_t{2}, size_t{5}, size_t{33}}) {
    std::vector<G1Point> pts;
    std::vector<FpInt> ks;
    G1Point want = G1Point::infinity(curve_.get());
    for (size_t i = 0; i < n; ++i) {
      pts.push_back(random_point(static_cast<int>(100 * n + i)));
      ks.push_back(random_scalar(static_cast<int>(100 * n + i)));
      want = want + naive_mul(pts[i], ks[i]);
    }
    EXPECT_EQ(g1_multiexp(curve_.get(), pts, ks), want) << "n=" << n;
  }
}

TEST_F(ScalarMulTest, MultiexpSignedCarryEdges) {
  // Scalars built to stress the signed recode: maximal digits in every
  // window (so each window borrows into the next), the borrow landing in
  // the synthetic top window, and the group-order boundary.
  std::vector<FpInt> edges = edge_scalars();
  edges.push_back(FpInt::from_hex("ffffffffffffffffffffffff"));  // all ones
  edges.push_back(FpInt::from_hex("800000000000000000000001"));
  edges.push_back(FpInt::from_hex("7fffffffffffffffffffffff"));
  for (size_t i = 0; i < edges.size(); ++i) {
    // A batch of identical edge scalars: every point hits the same
    // bucket, the worst case for a recode bug to survive averaging.
    std::vector<G1Point> pts;
    std::vector<FpInt> ks;
    G1Point want = G1Point::infinity(curve_.get());
    for (int j = 0; j < 4; ++j) {
      pts.push_back(random_point(300 + static_cast<int>(i) * 4 + j));
      ks.push_back(edges[i]);
      want = want + naive_mul(pts[j], edges[i]);
    }
    EXPECT_EQ(g1_multiexp(curve_.get(), pts, ks), want) << "edge #" << i;
    // A single wide scalar: the regression that pins the carry bug.
    std::vector<G1Point> one_pt = {pts[0]};
    std::vector<FpInt> one_k = {edges[i]};
    EXPECT_EQ(g1_multiexp(curve_.get(), one_pt, one_k),
              naive_mul(pts[0], edges[i]))
        << "edge #" << i;
  }
}

TEST_F(ScalarMulTest, MultiexpMixedBatchMatchesNaiveSum) {
  // Mixed magnitudes so different windows go dark for different points.
  std::vector<G1Point> pts;
  std::vector<FpInt> ks;
  G1Point want = G1Point::infinity(curve_.get());
  std::vector<FpInt> mixed = {FpInt{},
                              FpInt::from_u64(1),
                              FpInt::from_u64(0xff),
                              FpInt::from_u64(0x8000),
                              random_scalar(400),
                              bigint::sub(curve_->q, FpInt::from_u64(1))};
  for (size_t i = 0; i < mixed.size(); ++i) {
    pts.push_back(random_point(400 + static_cast<int>(i)));
    ks.push_back(mixed[i]);
    want = want + naive_mul(pts[i], mixed[i]);
  }
  EXPECT_EQ(g1_multiexp(curve_.get(), pts, ks), want);
}

// --- Fp inversion (single-mul Montgomery re-entry) --------------------------

TEST_F(ScalarMulTest, FpInverseRoundTrip) {
  const field::FpCtx* fp = curve_->fp.get();
  EXPECT_EQ(Fp::one(fp).inverse(), Fp::one(fp));
  for (int i = 0; i < 20; ++i) {
    Fp a = Fp::from_bytes_wide(
        fp, hashing::oracle_bytes("smul-inv", to_bytes(std::to_string(i)), 24));
    ASSERT_FALSE(a.is_zero());
    EXPECT_EQ(a * a.inverse(), Fp::one(fp));
    EXPECT_EQ(a.inverse().inverse(), a);
  }
}

}  // namespace
}  // namespace tre::ec
