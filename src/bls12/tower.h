// The F_p12 extension tower for BLS12-381.
//
//   F_p2  = F_p[u]/(u² + 1)            (bls12/fq.h)
//   F_p6  = F_p2[v]/(v³ − ξ), ξ = 1+u
//   F_p12 = F_p6[w]/(w² − v)           (so w⁶ = ξ)
//
// Elements are value types; operations take the shared TowerCtx, which
// owns ξ and the runtime-computed Frobenius constants γ_k = ξ^(k(p−1)/6)
// (no hardcoded tables — everything derives from the modulus).
#pragma once

#include <array>
#include <cstdint>

#include "bls12/fq.h"
#include "field/fp.h"

namespace tre::bls12 {

// Integers at the field layer's width: scalars, exponents and the values
// the context derives from z.
using field::FpCtx;
using field::FpInt;

struct Fp6 {
  Fq2 c0, c1, c2;  // c0 + c1·v + c2·v²
};

struct Fp12 {
  Fp6 c0, c1;  // c0 + c1·w
};

struct TowerCtx {
  Fq2 xi;                        // 1 + u
  std::array<Fq2, 6> frob_gamma; // γ_k = ξ^(k(p−1)/6), k = 0..5

  TowerCtx();
};

// --- F_p6 ---------------------------------------------------------------------

Fp6 fp6_zero(const TowerCtx& t);
Fp6 fp6_one(const TowerCtx& t);
bool fp6_is_zero(const Fp6& a);
bool fp6_eq(const Fp6& a, const Fp6& b);
Fp6 fp6_add(const Fp6& a, const Fp6& b);
Fp6 fp6_sub(const Fp6& a, const Fp6& b);
Fp6 fp6_neg(const Fp6& a);
Fp6 fp6_mul(const TowerCtx& t, const Fp6& a, const Fp6& b);
Fp6 fp6_sqr(const TowerCtx& t, const Fp6& a);
Fp6 fp6_inv(const TowerCtx& t, const Fp6& a);
/// Multiplication by v: (c0, c1, c2) -> (ξ·c2, c0, c1).
Fp6 fp6_mul_by_v(const TowerCtx& t, const Fp6& a);
/// a · (b0 + b1·v) — sparse operand with no v² term (5 Fq2 muls).
Fp6 fp6_mul_by_01(const TowerCtx& t, const Fp6& a, const Fq2& b0, const Fq2& b1);
/// a · (b1·v) (3 Fq2 muls).
Fp6 fp6_mul_by_1(const TowerCtx& t, const Fp6& a, const Fq2& b1);

// --- F_p12 --------------------------------------------------------------------

Fp12 fp12_zero(const TowerCtx& t);
Fp12 fp12_one(const TowerCtx& t);
bool fp12_is_one(const TowerCtx& t, const Fp12& a);
bool fp12_eq(const Fp12& a, const Fp12& b);
Fp12 fp12_add(const Fp12& a, const Fp12& b);
Fp12 fp12_sub(const Fp12& a, const Fp12& b);
Fp12 fp12_neg(const Fp12& a);
Fp12 fp12_mul(const TowerCtx& t, const Fp12& a, const Fp12& b);
Fp12 fp12_sqr(const TowerCtx& t, const Fp12& a);
Fp12 fp12_inv(const TowerCtx& t, const Fp12& a);
Fp12 fp12_from_fp(const TowerCtx& t, const Fq& a);
Fp12 fp12_from_fp2(const TowerCtx& t, const Fq2& a);

/// F_p6-conjugation c0 + c1·w -> c0 − c1·w, i.e. a^(p⁶). On the
/// cyclotomic subgroup (a^(p⁶+1) = 1, e.g. any final-exponentiation
/// output) this IS the inverse, for free.
Fp12 fp12_conjugate(const Fp12& a);

/// Sparse multiplication by a Miller line ℓ = c0 + c1·v + c4·vw — the
/// shape every M-twist line evaluation takes (nonzero flattened
/// coefficients 0, 1 and 4, hence the name). ~13 Fq2 muls vs 18 for a
/// generic fp12_mul.
Fp12 fp12_mul_by_014(const TowerCtx& t, const Fp12& a, const Fq2& c0,
                     const Fq2& c1, const Fq2& c4);

/// Granger–Scott squaring for elements of the cyclotomic subgroup
/// G_Φ6(p²) = {a : a^(p⁴−p²+1) = 1} (final-exponentiation outputs and
/// everything the hard part touches). 9 Fq2 muls vs 18 for fp12_sqr.
/// PRECONDITION: a is cyclotomic; the formulas are only an identity
/// there.
Fp12 fp12_cyclotomic_sqr(const TowerCtx& t, const Fp12& a);

/// Exponentiation with cyclotomic squarings. Same precondition (and
/// exactly the same value) as fp12_pow on cyclotomic inputs. Signed
/// digits are free here: the cyclotomic inverse is a conjugation, so a
/// width-4 wNAF cuts the multiply count to ~L/5 with a table of four odd
/// powers — the hard part of the final exponentiation spends most of its
/// multiplies in this function.
template <size_t L>
Fp12 fp12_cyclotomic_pow(const TowerCtx& t, const Fp12& a,
                         const bigint::BigInt<L>& e) {
  if (e.is_zero()) return fp12_one(t);
  std::int8_t digits[bigint::kWnafMaxDigits<L>];
  size_t len = bigint::wnaf_into(e, 4, digits);
  // Odd powers a^1, a^3, a^5, a^7.
  Fp12 tab[4];
  tab[0] = a;
  Fp12 a2 = fp12_cyclotomic_sqr(t, a);
  for (size_t i = 1; i < 4; ++i) tab[i] = fp12_mul(t, tab[i - 1], a2);
  Fp12 acc = fp12_one(t);
  bool started = false;
  for (size_t i = len; i-- > 0;) {
    if (started) acc = fp12_cyclotomic_sqr(t, acc);
    std::int8_t d = digits[i];
    if (d == 0) continue;
    Fp12 term = d > 0 ? tab[(d - 1) / 2] : fp12_conjugate(tab[(-d - 1) / 2]);
    acc = started ? fp12_mul(t, acc, term) : term;
    started = true;
  }
  return acc;
}

/// The p-power Frobenius endomorphism (cheap: conjugations + γ scaling).
Fp12 fp12_frobenius(const TowerCtx& t, const Fp12& a);

/// Square-and-multiply exponentiation, MSB first.
template <size_t L>
Fp12 fp12_pow(const TowerCtx& t, const Fp12& a, const bigint::BigInt<L>& e) {
  Fp12 acc = fp12_one(t);
  for (size_t i = e.bit_length(); i-- > 0;) {
    acc = fp12_sqr(t, acc);
    if (e.bit(i)) acc = fp12_mul(t, acc, a);
  }
  return acc;
}

/// Serialization (fixed width, re-to-im order) — for H2 mask inputs.
Bytes fp12_to_bytes(const Fp12& a);

}  // namespace tre::bls12
