#include "bls12/tower.h"

#include "common/error.h"

namespace tre::bls12 {

TowerCtx::TowerCtx() : xi(Fq::one(), Fq::one()) {  // 1 + u
  // (p - 1) / 6 must be exact for the sextic tower to close.
  const Fq::Int p_minus_1 = bigint::sub(Fq::kModulus, Fq::Int::from_u64(1));
  Fq::Int e, rem;
  bigint::divmod(p_minus_1, Fq::Int::from_u64(6), e, rem);
  require(rem.is_zero(), "TowerCtx: p != 1 (mod 6)");

  frob_gamma[0] = Fq2::one();
  frob_gamma[1] = xi.pow(e);
  for (size_t k = 2; k < 6; ++k) frob_gamma[k] = frob_gamma[k - 1] * frob_gamma[1];
  // γ_1 must have multiplicative order 12 over the conjugation action;
  // in particular it cannot be 1, or ξ is a 6th power and the tower is
  // degenerate.
  require(!frob_gamma[1].is_one(), "TowerCtx: xi is a sextic residue");
}

namespace {

/// Multiplication by ξ = 1 + u, the constant the tower constructor pins:
/// (a + bu)(1 + u) = (a − b) + (a + b)u — two base-field additions
/// instead of the three multiplications a generic F_p2 product costs.
/// Every ξ· below is on a hot path (F_p6/F_p12 reduction terms, the
/// cyclotomic squaring), so this is one of the larger constant-factor
/// wins in the whole pairing.
inline Fq2 mul_by_xi(const Fq2& a) {
  return Fq2(a.re() - a.im(), a.re() + a.im());
}

}  // namespace

// --- F_p6 ----------------------------------------------------------------------

Fp6 fp6_zero(const TowerCtx& /*t*/) { return Fp6{}; }

Fp6 fp6_one(const TowerCtx& /*t*/) { return Fp6{Fq2::one(), Fq2(), Fq2()}; }

bool fp6_is_zero(const Fp6& a) {
  return a.c0.is_zero() && a.c1.is_zero() && a.c2.is_zero();
}

bool fp6_eq(const Fp6& a, const Fp6& b) {
  return a.c0 == b.c0 && a.c1 == b.c1 && a.c2 == b.c2;
}

Fp6 fp6_add(const Fp6& a, const Fp6& b) {
  return Fp6{a.c0 + b.c0, a.c1 + b.c1, a.c2 + b.c2};
}

Fp6 fp6_sub(const Fp6& a, const Fp6& b) {
  return Fp6{a.c0 - b.c0, a.c1 - b.c1, a.c2 - b.c2};
}

Fp6 fp6_neg(const Fp6& a) { return Fp6{-a.c0, -a.c1, -a.c2}; }

Fp6 fp6_mul(const TowerCtx& /*t*/, const Fp6& a, const Fp6& b) {
  // Toom/Karatsuba with v³ = ξ: 6 Fq2 muls instead of the schoolbook 9.
  Fq2 t0 = a.c0 * b.c0;
  Fq2 t1 = a.c1 * b.c1;
  Fq2 t2 = a.c2 * b.c2;
  Fq2 c0 = t0 + mul_by_xi((a.c1 + a.c2) * (b.c1 + b.c2) - t1 - t2);
  Fq2 c1 = (a.c0 + a.c1) * (b.c0 + b.c1) - t0 - t1 + mul_by_xi(t2);
  Fq2 c2 = (a.c0 + a.c2) * (b.c0 + b.c2) - t0 - t2 + t1;
  return Fp6{c0, c1, c2};
}

Fp6 fp6_sqr(const TowerCtx& /*t*/, const Fp6& a) {
  // CH-SQR: 2 Fq2 squarings + 3 Fq2 muls.
  Fq2 s0 = a.c0.squared();
  Fq2 cross = a.c1 * a.c2;
  Fq2 s1 = a.c0 * a.c1;
  Fq2 s2 = a.c1.squared();
  Fq2 s3 = a.c0 * a.c2;
  return Fp6{s0 + mul_by_xi(cross + cross), s1 + s1 + mul_by_xi(a.c2.squared()),
             s2 + s3 + s3};
}

Fp6 fp6_mul_by_01(const TowerCtx& /*t*/, const Fp6& a, const Fq2& b0, const Fq2& b1) {
  Fq2 t0 = a.c0 * b0;
  Fq2 t1 = a.c1 * b1;
  Fq2 c0 = mul_by_xi((a.c1 + a.c2) * b1 - t1) + t0;
  Fq2 c1 = (a.c0 + a.c1) * (b0 + b1) - t0 - t1;
  Fq2 c2 = (a.c0 + a.c2) * b0 - t0 + t1;
  return Fp6{c0, c1, c2};
}

Fp6 fp6_mul_by_1(const TowerCtx& /*t*/, const Fp6& a, const Fq2& b1) {
  return Fp6{mul_by_xi(a.c2 * b1), a.c0 * b1, a.c1 * b1};
}

Fp6 fp6_inv(const TowerCtx& /*t*/, const Fp6& a) {
  require(!fp6_is_zero(a), "fp6_inv: zero");
  // Standard tower inversion.
  Fq2 big_a = a.c0.squared() - mul_by_xi(a.c1 * a.c2);
  Fq2 big_b = mul_by_xi(a.c2.squared()) - a.c0 * a.c1;
  Fq2 big_c = a.c1.squared() - a.c0 * a.c2;
  Fq2 f = a.c0 * big_a + mul_by_xi(a.c2 * big_b + a.c1 * big_c);
  Fq2 finv = f.inverse();
  return Fp6{big_a * finv, big_b * finv, big_c * finv};
}

Fp6 fp6_mul_by_v(const TowerCtx& /*t*/, const Fp6& a) {
  return Fp6{mul_by_xi(a.c2), a.c0, a.c1};
}

// --- F_p12 ---------------------------------------------------------------------

Fp12 fp12_zero(const TowerCtx& t) { return Fp12{fp6_zero(t), fp6_zero(t)}; }

Fp12 fp12_one(const TowerCtx& t) { return Fp12{fp6_one(t), fp6_zero(t)}; }

bool fp12_is_one(const TowerCtx& t, const Fp12& a) {
  return fp6_eq(a.c0, fp6_one(t)) && fp6_is_zero(a.c1);
}

bool fp12_eq(const Fp12& a, const Fp12& b) {
  return fp6_eq(a.c0, b.c0) && fp6_eq(a.c1, b.c1);
}

Fp12 fp12_add(const Fp12& a, const Fp12& b) {
  return Fp12{fp6_add(a.c0, b.c0), fp6_add(a.c1, b.c1)};
}

Fp12 fp12_sub(const Fp12& a, const Fp12& b) {
  return Fp12{fp6_sub(a.c0, b.c0), fp6_sub(a.c1, b.c1)};
}

Fp12 fp12_neg(const Fp12& a) { return Fp12{fp6_neg(a.c0), fp6_neg(a.c1)}; }

Fp12 fp12_mul(const TowerCtx& t, const Fp12& a, const Fp12& b) {
  // Karatsuba over w² = v.
  Fp6 t0 = fp6_mul(t, a.c0, b.c0);
  Fp6 t1 = fp6_mul(t, a.c1, b.c1);
  Fp6 mixed = fp6_mul(t, fp6_add(a.c0, a.c1), fp6_add(b.c0, b.c1));
  return Fp12{fp6_add(t0, fp6_mul_by_v(t, t1)),
              fp6_sub(fp6_sub(mixed, t0), t1)};
}

Fp12 fp12_sqr(const TowerCtx& t, const Fp12& a) {
  // Complex squaring over w² = v: 2 Fp6 muls.
  Fp6 ab = fp6_mul(t, a.c0, a.c1);
  Fp6 c0 = fp6_sub(
      fp6_sub(fp6_mul(t, fp6_add(a.c0, a.c1), fp6_add(a.c0, fp6_mul_by_v(t, a.c1))),
              ab),
      fp6_mul_by_v(t, ab));
  return Fp12{c0, fp6_add(ab, ab)};
}

Fp12 fp12_conjugate(const Fp12& a) { return Fp12{a.c0, fp6_neg(a.c1)}; }

Fp12 fp12_mul_by_014(const TowerCtx& t, const Fp12& a, const Fq2& c0,
                     const Fq2& c1, const Fq2& c4) {
  // ℓ = (c0 + c1·v) + (c4·v)·w; Karatsuba over w² = v.
  Fp6 aa = fp6_mul_by_01(t, a.c0, c0, c1);
  Fp6 bb = fp6_mul_by_1(t, a.c1, c4);
  Fp6 hi = fp6_mul_by_01(t, fp6_add(a.c0, a.c1), c0, c1 + c4);
  return Fp12{fp6_add(aa, fp6_mul_by_v(t, bb)),
              fp6_sub(fp6_sub(hi, aa), bb)};
}

Fp12 fp12_cyclotomic_sqr(const TowerCtx& /*t*/, const Fp12& a) {
  // Granger–Scott. View F_p12 = F_p4[w]/(w³ − s) with F_p4 = F_p2[s],
  // s² = ξ (s = vw): the element regroups into three F_p4 components
  //   g0 = (a.c0.c0, a.c1.c1), g1 = (a.c1.c0, a.c0.c2),
  //   g2 = (a.c0.c1, a.c1.c2)
  // and for cyclotomic a the square is
  //   h0 = 3g0² − 2ḡ0,  h1 = 3s·g2² + 2ḡ1,  h2 = 3g1² − 2ḡ2
  // (bars are the F_p4 conjugation s -> −s).
  const Fq2& z0 = a.c0.c0;
  const Fq2& z1 = a.c1.c1;
  const Fq2& z2 = a.c1.c0;
  const Fq2& z3 = a.c0.c2;
  const Fq2& z4 = a.c0.c1;
  const Fq2& z5 = a.c1.c2;
  // (x + y·s)² = (x² + ξy²) + 2xy·s, via one cross product.
  auto fp4_sqr = [&](const Fq2& x, const Fq2& y, Fq2& re, Fq2& im) {
    Fq2 cross = x * y;
    re = (x + y) * (x + mul_by_xi(y)) - cross - mul_by_xi(cross);
    im = cross + cross;
  };
  Fq2 t0, t1, t2, t3, t4, t5;
  fp4_sqr(z0, z1, t0, t1);  // g0²
  fp4_sqr(z2, z3, t2, t3);  // g1²
  fp4_sqr(z4, z5, t4, t5);  // g2²
  Fp12 r;
  // h0 = 3g0² − 2ḡ0.
  r.c0.c0 = (t0 - z0) + (t0 - z0) + t0;
  r.c1.c1 = (t1 + z1) + (t1 + z1) + t1;
  // h1 = 3s·g2² + 2ḡ1; s·(t4 + t5·s) = ξt5 + t4·s.
  Fq2 xi_t5 = mul_by_xi(t5);
  r.c1.c0 = (xi_t5 + z2) + (xi_t5 + z2) + xi_t5;
  r.c0.c2 = (t4 - z3) + (t4 - z3) + t4;
  // h2 = 3g1² − 2ḡ2.
  r.c0.c1 = (t2 - z4) + (t2 - z4) + t2;
  r.c1.c2 = (t3 + z5) + (t3 + z5) + t3;
  return r;
}

Fp12 fp12_inv(const TowerCtx& t, const Fp12& a) {
  // (a0 − a1 w) / (a0² − v a1²)
  Fp6 denom = fp6_sub(fp6_sqr(t, a.c0), fp6_mul_by_v(t, fp6_sqr(t, a.c1)));
  Fp6 dinv = fp6_inv(t, denom);
  return Fp12{fp6_mul(t, a.c0, dinv), fp6_neg(fp6_mul(t, a.c1, dinv))};
}

Fp12 fp12_from_fp(const TowerCtx& t, const Fq& a) {
  Fp12 r = fp12_zero(t);
  r.c0.c0 = Fq2(a, Fq());
  return r;
}

Fp12 fp12_from_fp2(const TowerCtx& t, const Fq2& a) {
  Fp12 r = fp12_zero(t);
  r.c0.c0 = a;
  return r;
}

Fp12 fp12_frobenius(const TowerCtx& t, const Fp12& a) {
  // Basis monomials w^m, m = i + 2j for coefficient (i, j):
  //   (w^m)^p = γ_m · w^m, coefficients conjugated.
  Fp12 r;
  r.c0.c0 = a.c0.c0.conjugate();                       // m = 0
  r.c0.c1 = a.c0.c1.conjugate() * t.frob_gamma[2];     // v   (m = 2)
  r.c0.c2 = a.c0.c2.conjugate() * t.frob_gamma[4];     // v²  (m = 4)
  r.c1.c0 = a.c1.c0.conjugate() * t.frob_gamma[1];     // w   (m = 1)
  r.c1.c1 = a.c1.c1.conjugate() * t.frob_gamma[3];     // wv  (m = 3)
  r.c1.c2 = a.c1.c2.conjugate() * t.frob_gamma[5];     // wv² (m = 5)
  return r;
}

Bytes fp12_to_bytes(const Fp12& a) {
  return concat({a.c0.c0.to_bytes(), a.c0.c1.to_bytes(), a.c0.c2.to_bytes(),
                 a.c1.c0.to_bytes(), a.c1.c1.to_bytes(), a.c1.c2.to_bytes()});
}

}  // namespace tre::bls12
