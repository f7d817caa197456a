// One Jacobian kernel for every elliptic-curve group in the tree: type-1
// G1 (y² = x³ + 1 over field::Fp, ec/curve.h) and BLS12-381's G1 over Fq
// and G2 over Fq2 (bls12/bls12.h). All three are a = 0 short-Weierstrass
// curves and no formula below reads the constant b, so each group's
// scalar multiplications are these templates instantiated at its
// coordinate field:
//
//   jac_dbl, jac_add, jac_madd   dbl-2009-l, add-2007-bl, madd-2007-bl
//   mul_wnaf                     width-4 wNAF           PUBLIC scalars
//   mul_secret                   fixed-window ladder    SECRET scalars
//   Comb                         Lim–Lee fixed-base comb (affine table)
//
// ec/multiexp.h runs its Pippenger buckets on jac_madd and jac_add.
//
// F needs the ring operators, squared(), inverse(), is_zero() and ==.
// Making 1 is the only thing that differs per field (one_like). Every
// multiplication returns an affine point, whose coordinates are unique,
// so no result depends on the Jacobian route taken to it.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "bigint/bigint.h"

namespace tre::ec {

/// An affine point; `inf` marks the point at infinity (x, y unused).
template <class F>
struct Affine {
  F x, y;
  bool inf = true;
};

/// Jacobian coordinates: x = X/Z², y = Y/Z³. Z = 0 is the point at
/// infinity, whatever X and Y hold.
template <class F>
struct Jac {
  F x, y, z;
  bool inf() const { return z.is_zero(); }
};

/// 1 in the field `like` belongs to: field::Fp carries its modulus in a
/// context pointer, Fq and Fq2 are context-free.
template <class F>
F one_like(const F& like) {
  if constexpr (requires { F::one(); }) {
    return F::one();
  } else {
    return F::one(like.ctx());
  }
}

/// The point at infinity, in the field of `like`.
template <class F>
Jac<F> jac_infinity(const F& like) {
  return {like, like, like - like};
}

/// `p` must not be infinity.
template <class F>
Jac<F> to_jac(const Affine<F>& p) {
  return {p.x, p.y, one_like(p.x)};
}

template <class F>
Affine<F> to_affine(const Jac<F>& p) {
  if (p.inf()) return {};
  const F zi = p.z.inverse();
  const F zi2 = zi.squared();
  return {p.x * zi2, p.y * zi2 * zi, false};
}

/// 2P. Needs no branch: Z3 = 2·Y·Z is zero exactly when P is infinity or
/// has order 2 (Y = 0), the two cases whose double is infinity.
template <class F>
Jac<F> jac_dbl(const Jac<F>& p) {
  const F a = p.x.squared();
  const F b = p.y.squared();
  const F c = b.squared();
  F d = (p.x + b).squared() - a - c;
  d = d + d;
  const F e = a + a + a;
  const F x3 = e.squared() - (d + d);
  F c8 = c + c;
  c8 = c8 + c8;
  c8 = c8 + c8;
  const F yz = p.y * p.z;
  return {x3, e * (d - x3) - c8, yz + yz};
}

/// P + Q; doubles when P = Q.
template <class F>
Jac<F> jac_add(const Jac<F>& p, const Jac<F>& q) {
  if (p.inf()) return q;
  if (q.inf()) return p;
  const F z1z1 = p.z.squared();
  const F z2z2 = q.z.squared();
  const F u1 = p.x * z2z2;
  const F u2 = q.x * z1z1;
  const F s1 = p.y * q.z * z2z2;
  const F s2 = q.y * p.z * z1z1;
  if (u1 == u2) return s1 == s2 ? jac_dbl(p) : jac_infinity(p.x);
  const F h = u2 - u1;
  const F i = (h + h).squared();
  const F j = h * i;
  F r = s2 - s1;
  r = r + r;
  const F v = u1 * i;
  const F x3 = r.squared() - j - (v + v);
  const F s1j = s1 * j;
  return {x3, r * (v - x3) - (s1j + s1j), ((p.z + q.z).squared() - z1z1 - z2z2) * h};
}

/// P + (x2, y2) for an affine second operand that is not infinity: the
/// comb's and the multi-exp buckets' addition, one squaring and three
/// multiplications cheaper than jac_add.
template <class F>
Jac<F> jac_madd(const Jac<F>& p, const F& x2, const F& y2) {
  if (p.inf()) return {x2, y2, one_like(x2)};
  const F z1z1 = p.z.squared();
  const F u2 = x2 * z1z1;
  const F s2 = y2 * p.z * z1z1;
  if (u2 == p.x) return s2 == p.y ? jac_dbl(p) : jac_infinity(p.x);
  const F h = u2 - p.x;
  const F hh = h.squared();
  F i = hh + hh;
  i = i + i;  // 4h²
  const F j = h * i;
  F r = s2 - p.y;
  r = r + r;
  const F v = p.x * i;
  const F x3 = r.squared() - j - (v + v);
  const F yj = p.y * j;
  return {x3, r * (v - x3) - (yj + yj), (p.z + h).squared() - z1z1 - hh};
}

/// k·P by width-4 wNAF over the odd multiples P, 3P, 5P, 7P (the digits
/// reach ±7): about one addition per five doublings. Variable time in k:
/// PUBLIC scalars only.
template <class F, size_t L>
Affine<F> mul_wnaf(const Affine<F>& p, const bigint::BigInt<L>& k) {
  if (p.inf || k.is_zero()) return {};
  std::array<Jac<F>, 4> odd;  // odd[i] = (2i + 1)·P
  odd[0] = to_jac(p);
  const Jac<F> twice = jac_dbl(odd[0]);
  for (size_t i = 1; i < odd.size(); ++i) odd[i] = jac_add(odd[i - 1], twice);
  // Stack recoding buffer: the membership and verification paths that run
  // this on pool workers allocate nothing.
  std::int8_t digits[bigint::kWnafMaxDigits<L>];
  const size_t n = bigint::wnaf_into(k, 4, digits);
  Jac<F> acc = jac_infinity(p.x);
  for (size_t i = n; i-- > 0;) {
    if (i + 1 < n) acc = jac_dbl(acc);
    const int d = digits[i];
    if (d > 0) {
      acc = jac_add(acc, odd[static_cast<size_t>(d / 2)]);
    } else if (d < 0) {
      Jac<F> neg = odd[static_cast<size_t>(-d / 2)];
      neg.y = -neg.y;
      acc = jac_add(acc, neg);
    }
  }
  return to_affine(acc);
}

/// k·P over ⌈max(order_bits, |k|)/4⌉ width-4 windows, each four doublings
/// and one table addition whatever the digit: a zero digit adds P into a
/// separate dummy accumulator, which starts at 2P and so, for P of large
/// order, never sits at infinity. For SECRET scalars. Constant-pattern, not constant-time: the
/// table read and the accumulator are picked by the digit, jac_add still
/// returns early while the result is infinity (a short scalar's leading
/// windows), and to_affine's inversion is variable-time (docs/PERF.md).
template <class F, size_t L>
Affine<F> mul_secret(const Affine<F>& p, const bigint::BigInt<L>& k, size_t order_bits) {
  if (p.inf || k.is_zero()) return {};
  std::array<Jac<F>, 16> tab;  // tab[d] = d·P; tab[0] unused
  tab[1] = to_jac(p);
  for (size_t d = 2; d < tab.size(); ++d) {
    tab[d] = d % 2 == 0 ? jac_dbl(tab[d / 2]) : jac_add(tab[d - 1], tab[1]);
  }
  const size_t windows = (std::max(order_bits, k.bit_length()) + 3) / 4;
  std::array<Jac<F>, 2> acc = {jac_infinity(p.x), tab[2]};  // result, dummy
  for (size_t w = windows; w-- > 0;) {
    if (w + 1 < windows) {
      for (int s = 0; s < 4; ++s) acc[0] = jac_dbl(acc[0]);
    }
    size_t d = 0;
    for (size_t b = 4; b-- > 0;) d = (d << 1) | size_t{k.bit(4 * w + b)};
    const size_t dummy = d == 0;
    acc[dummy] = jac_add(acc[dummy], tab[d | dummy]);
  }
  return to_affine(acc[0]);
}

/// Lim–Lee fixed-base comb: a scalar of up to `bits` bits is read as
/// kTeeth rows of cols = ⌈bits/kTeeth⌉ columns, and the 2^kTeeth − 1
/// sums of the row bases 2^(t·cols)·base sit in an affine table
/// normalized with one inversion, so a multiplication costs `cols`
/// doublings and at most `cols` mixed additions. Wider scalars fall back
/// to mul_wnaf / mul_secret; an infinity base multiplies to infinity.
template <class F>
class Comb {
 public:
  static constexpr unsigned kTeeth = 8;

  /// Throws when a table entry is infinity (a base of small order).
  Comb(const Affine<F>& base, size_t bits)
      : base_(base), bits_(bits), cols_((bits + kTeeth - 1) / kTeeth) {
    if (base.inf) return;
    // table[m − 1] = Σ_{t ∈ m} 2^(t·cols)·base: a power of two m is the
    // next row base, any other m one addition from m without its lowest
    // set bit.
    constexpr size_t kEntries = (size_t{1} << kTeeth) - 1;
    std::vector<Jac<F>> jac(kEntries);
    Jac<F> row = to_jac(base);
    for (size_t m = 1; m <= kEntries; ++m) {
      const size_t low = m & (~m + 1);
      if (m != low) {
        jac[m - 1] = jac_add(jac[m - low - 1], jac[low - 1]);
        continue;
      }
      if (m > 1) {
        for (size_t s = 0; s < cols_; ++s) row = jac_dbl(row);
      }
      jac[m - 1] = row;
    }
    // Montgomery's trick: one inversion normalizes the whole table.
    std::vector<F> prefix(kEntries);  // prefix[i] = z_0 ⋯ z_i
    F run = one_like(base.x);
    for (size_t i = 0; i < kEntries; ++i) {
      require(!jac[i].inf(), "Comb: base point has small order");
      run = run * jac[i].z;
      prefix[i] = run;
    }
    F inv = run.inverse();
    table_.resize(kEntries);
    for (size_t i = kEntries; i-- > 0;) {
      const F zi = i == 0 ? inv : inv * prefix[i - 1];
      inv = inv * jac[i].z;
      const F zi2 = zi.squared();
      table_[i] = {jac[i].x * zi2, jac[i].y * zi2 * zi, false};
    }
  }

  size_t covered_bits() const { return bits_; }

  /// Variable time (PUBLIC scalars).
  template <size_t L>
  Affine<F> mul(const bigint::BigInt<L>& k) const {
    return walk(k, false);
  }
  /// One mixed addition per column whatever its digit, with mul_secret's
  /// dummy-accumulator policy and caveats (SECRET scalars).
  template <size_t L>
  Affine<F> mul_secret(const bigint::BigInt<L>& k) const {
    return walk(k, true);
  }

 private:
  template <size_t L>
  Affine<F> walk(const bigint::BigInt<L>& k, bool secret) const {
    if (base_.inf || k.is_zero()) return {};
    if (k.bit_length() > bits_) {
      return secret ? ec::mul_secret(base_, k, bits_) : mul_wnaf(base_, k);
    }
    // The dummy starts at table[1] and absorbs table[0] on zero columns.
    std::array<Jac<F>, 2> acc = {jac_infinity(base_.x), to_jac(table_[1])};
    for (size_t col = cols_; col-- > 0;) {
      if (col + 1 < cols_) acc[0] = jac_dbl(acc[0]);
      size_t m = 0;
      for (unsigned t = 0; t < kTeeth; ++t) m |= size_t{k.bit(t * cols_ + col)} << t;
      const size_t dummy = m == 0;
      if (dummy != 0 && !secret) continue;
      const Affine<F>& e = table_[(m | dummy) - 1];
      acc[dummy] = jac_madd(acc[dummy], e.x, e.y);
    }
    return to_affine(acc[0]);
  }

  Affine<F> base_;
  size_t bits_ = 0;
  size_t cols_ = 0;
  std::vector<Affine<F>> table_;
};

}  // namespace tre::ec
