// Quadratic extension F_p2 = F_p[i]/(i^2 + 1).
//
// Valid because every embedded parameter set has p ≡ 3 (mod 4), making -1
// a quadratic non-residue. The pairing's target group G_2 lives in the
// norm-1 subgroup of F_p2*, where inversion is conjugation.
#pragma once

#include "field/fp.h"

namespace tre::field {

class Fp2 {
 public:
  Fp2() = default;
  Fp2(Fp a, Fp b) : a_(a), b_(b) {}

  static Fp2 zero(const FpCtx* ctx) { return Fp2(Fp::zero(ctx), Fp::zero(ctx)); }
  static Fp2 one(const FpCtx* ctx) { return Fp2(Fp::one(ctx), Fp::zero(ctx)); }
  static Fp2 from_fp(Fp a) {
    return Fp2(a, Fp::zero(a.ctx()));
  }

  const Fp& re() const { return a_; }
  const Fp& im() const { return b_; }
  const FpCtx* ctx() const { return a_.ctx(); }

  bool is_zero() const { return a_.is_zero() && b_.is_zero(); }
  bool is_one() const;

  Fp2 operator+(const Fp2& o) const { return Fp2(a_ + o.a_, b_ + o.b_); }
  Fp2 operator-(const Fp2& o) const { return Fp2(a_ - o.a_, b_ - o.b_); }
  Fp2 operator-() const { return Fp2(-a_, -b_); }

  /// Karatsuba-style product (3 base-field multiplications).
  Fp2 operator*(const Fp2& o) const {
    Fp t0 = a_ * o.a_;
    Fp t1 = b_ * o.b_;
    Fp t2 = (a_ + b_) * (o.a_ + o.b_);
    return Fp2(t0 - t1, t2 - t0 - t1);
  }

  Fp2 scale(const Fp& s) const { return Fp2(a_ * s, b_ * s); }

  Fp2 squared() const {
    // (a+bi)^2 = (a+b)(a-b) + 2ab i
    Fp t0 = (a_ + b_) * (a_ - b_);
    Fp t1 = a_ * b_;
    return Fp2(t0, t1 + t1);
  }

  /// Complex conjugate; equals the p-power Frobenius on F_p2.
  Fp2 conjugate() const { return Fp2(a_, -b_); }

  /// Field norm a^2 + b^2 ∈ F_p.
  Fp norm() const { return a_.squared() + b_.squared(); }

  Fp2 inverse() const {
    Fp n = norm().inverse();
    return Fp2(a_ * n, -b_ * n);
  }

  /// Inverse for norm-1 elements (the pairing target group): conjugation.
  Fp2 unitary_inverse() const { return conjugate(); }

  /// Square root via the complex method (requires p ≡ 3 mod 4):
  /// for z = a + bi, sqrt(z) = x + (b/2x)i with x² = (a ± |z|)/2.
  /// nullopt when z is a non-residue. Verified before returning.
  std::optional<Fp2> sqrt() const;

  /// Sliding-window exponentiation (width-4 odd-power table,
  /// bigint::pow_sliding_window). Bit-identical to pow_binary on every
  /// input; ~1.4x fewer multiplications on the long final-exponentiation
  /// and G_T exponents.
  Fp2 pow(const FpInt& e) const;

  /// Legacy square-and-multiply, kept as the cross-checked reference for
  /// pow()/pow_unitary() and for the ablation benchmarks.
  Fp2 pow_binary(const FpInt& e) const {
    Fp2 acc = one(ctx());
    for (size_t i = e.bit_length(); i-- > 0;) {
      acc = acc.squared();
      if (e.bit(i)) acc = acc * (*this);
    }
    return acc;
  }

  /// Width-5 wNAF exponentiation for NORM-1 elements (the pairing target
  /// group G_2), where inversion is free (conjugation) so signed digits
  /// cost nothing. Throws if the norm is not 1. This is the hot G_T path
  /// of TRE decryption.
  Fp2 pow_unitary(const FpInt& e) const;

  /// Serialization: re || im, fixed width.
  Bytes to_bytes() const;
  static Fp2 from_bytes(const FpCtx* ctx, ByteSpan bytes);

  friend bool operator==(const Fp2& x, const Fp2& y) {
    return x.a_ == y.a_ && x.b_ == y.b_;
  }

 private:
  Fp a_;
  Fp b_;
};

}  // namespace tre::field
