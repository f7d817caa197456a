// The BLS12-381 base field F_p and its quadratic extension, on types of
// their own.
//
// `Fq` is a six-limb Montgomery residue a·R mod p with R = 2^384. These are
// the residues field::Fp holds for this p (its CIOS runs over the six
// active limbs of a 12-limb container, so its R is 2^384 as well): the two
// types convert by copying limbs, and every byte either serializes is the
// same. field::Fp carries a context pointer that every operation checks and
// dispatches on the context's limb count at run time; Fq has neither. Its
// modulus is the one constant kModulus, every other constant derives from
// it at compile time, and an Fq can only belong to this field. A
// default-constructed Fq is zero.
//
// The product is gnark-crypto's "no-carry" CIOS (fq_detail::mont_mul,
// docs/PERF.md "BLS12-381 base field"): while the modulus's top limb is
// below 2^63 − 1, the running value of every round fits in six limbs, so
// the two extra limbs of the textbook loop and their carries vanish.
//
// `Fq2` = F_p[u]/(u² + 1), with the basis and formulas of field::Fp2.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "bigint/bigint.h"
#include "bigint/montgomery.h"
#include "hashing/drbg.h"

namespace tre::bls12 {

namespace fq_detail {

using Limbs = bigint::BigInt<6>;
using u128 = unsigned __int128;

/// p = 0x1a0111ea397fe69a...ffffaaab, least significant limb first.
inline constexpr Limbs kP = [] {
  Limbs p;
  p.w = {0xb9feffffffffaaab, 0x1eabfffeb153ffff, 0x6730d2a0f6b0f624,
         0x64774b84f38512bf, 0x4b1ba7b6434bacd7, 0x1a0111ea397fe69a};
  return p;
}();
static_assert(kP.w[5] < (std::uint64_t{1} << 63) - 1,
              "the no-carry CIOS product needs the top limb below 2^63 - 1");

/// −p⁻¹ mod 2^64 (Newton's iteration doubles the correct low bits).
inline constexpr std::uint64_t kPInv = [] {
  std::uint64_t inv = kP.w[0];
  for (int i = 0; i < 6; ++i) inv *= 2 - kP.w[0] * inv;
  return ~inv + 1;
}();

/// x·2^k mod p for x < p.
constexpr Limbs shl_mod(Limbs x, size_t k) {
  for (size_t i = 0; i < k; ++i) x = bigint::addmod(x, x, kP);
  return x;
}
inline constexpr Limbs kR1 = shl_mod(Limbs::from_u64(1), 384);  // R mod p
inline constexpr Limbs kR2 = shl_mod(kR1, 384);                 // R² mod p
inline constexpr Limbs kR3 = shl_mod(kR2, 384);                 // R³ mod p

/// a + b + carry, carrying in and out through `carry` (0 or 1): one
/// add-with-carry instruction on x86-64, whose carry chains GCC does not
/// form from 128-bit sums.
constexpr std::uint64_t addc(std::uint64_t a, std::uint64_t b, unsigned char& carry) {
#if defined(__x86_64__)
  if (!std::is_constant_evaluated()) {
    unsigned long long out;
    carry = _addcarry_u64(carry, a, b, &out);
    return out;
  }
#endif
  const u128 s = static_cast<u128>(a) + b + carry;
  carry = static_cast<unsigned char>(s >> 64);
  return static_cast<std::uint64_t>(s);
}

/// a − b − borrow, borrowing in and out through `borrow` (0 or 1).
constexpr std::uint64_t subb(std::uint64_t a, std::uint64_t b, unsigned char& borrow) {
#if defined(__x86_64__)
  if (!std::is_constant_evaluated()) {
    unsigned long long out;
    borrow = _subborrow_u64(borrow, a, b, &out);
    return out;
  }
#endif
  const u128 s = static_cast<u128>(a) - b - borrow;
  borrow = static_cast<unsigned char>((s >> 64) & 1);
  return static_cast<std::uint64_t>(s);
}

/// The 128-bit product a·b as (low limb, `hi`).
constexpr std::uint64_t mul_wide(std::uint64_t a, std::uint64_t b, std::uint64_t& hi) {
  const u128 p = static_cast<u128>(a) * b;
  hi = static_cast<std::uint64_t>(p >> 64);
  return static_cast<std::uint64_t>(p);
}

/// x − p when x ≥ p, else x (for x < 2p); selects limb by limb, no branch.
constexpr Limbs reduce_once(const Limbs& x) {
  Limbs d;
  unsigned char borrow = 0;
  for (size_t j = 0; j < 6; ++j) d.w[j] = subb(x.w[j], kP.w[j], borrow);
  for (size_t j = 0; j < 6; ++j) d.w[j] = borrow ? x.w[j] : d.w[j];
  return d;
}

/// a·b·R⁻¹ mod p for a < p and any six-limb b (b need not be reduced).
///
/// CIOS with the spare bits of p spent (El Housni–Botrel's "no-carry"
/// variant, as in gnark-crypto): the running value t stays at most
/// 2p − 1 < 2^382 after every round, so it lives in six limbs where the
/// textbook loop keeps eight, each round's sum S = t + a·b_i + m·p fits in
/// seven, and neither that seventh limb nor the shifted result ever carries
/// out. Each round adds the six low product halves in one carry chain and
/// the six high halves, one limb up, in a second.
constexpr Limbs mont_mul(const Limbs& a, const Limbs& b) {
  std::uint64_t t[6] = {};
#pragma GCC unroll 6
  for (size_t i = 0; i < 6; ++i) {
    std::uint64_t lo[6], hi[6], s[7];
    // S = t + a·b_i.
#pragma GCC unroll 6
    for (size_t j = 0; j < 6; ++j) lo[j] = mul_wide(a.w[j], b.w[i], hi[j]);
    unsigned char c = 0;
#pragma GCC unroll 6
    for (size_t j = 0; j < 6; ++j) s[j] = addc(t[j], lo[j], c);
    s[6] = c;
    c = 0;
#pragma GCC unroll 6
    for (size_t j = 0; j < 6; ++j) s[j + 1] = addc(s[j + 1], hi[j], c);
    // t = (S + m·p) / 2^64, with m making the low limb vanish.
    const std::uint64_t m = s[0] * kPInv;
#pragma GCC unroll 6
    for (size_t j = 0; j < 6; ++j) lo[j] = mul_wide(m, kP.w[j], hi[j]);
    c = 0;
    (void)addc(s[0], lo[0], c);
#pragma GCC unroll 5
    for (size_t j = 1; j < 6; ++j) s[j] = addc(s[j], lo[j], c);
    s[6] += c;
    c = 0;
#pragma GCC unroll 6
    for (size_t j = 0; j < 6; ++j) t[j] = addc(s[j + 1], hi[j], c);
  }
  Limbs out;
  for (size_t j = 0; j < 6; ++j) out.w[j] = t[j];
  return reduce_once(out);
}

/// a + b mod p for a, b < p: the sum is below 2p < 2^384, so it cannot
/// carry out of six limbs.
constexpr Limbs add_mod(const Limbs& a, const Limbs& b) {
  Limbs r;
  unsigned char c = 0;
  for (size_t j = 0; j < 6; ++j) r.w[j] = addc(a.w[j], b.w[j], c);
  return reduce_once(r);
}

/// a − b mod p for a, b < p: p is added back under a mask on a borrow.
constexpr Limbs sub_mod(const Limbs& a, const Limbs& b) {
  Limbs r;
  unsigned char borrow = 0;
  for (size_t j = 0; j < 6; ++j) r.w[j] = subb(a.w[j], b.w[j], borrow);
  const std::uint64_t mask = 0 - static_cast<std::uint64_t>(borrow);
  unsigned char c = 0;
  for (size_t j = 0; j < 6; ++j) r.w[j] = addc(r.w[j], kP.w[j] & mask, c);
  return r;
}

}  // namespace fq_detail

class Fq {
 public:
  using Int = fq_detail::Limbs;
  static constexpr size_t kBytes = 48;
  static constexpr const Int& kModulus = fq_detail::kP;

  constexpr Fq() = default;  // zero

  static constexpr Fq zero() { return Fq(); }
  static constexpr Fq one() { return Fq(fq_detail::kR1); }
  static constexpr Fq from_u64(std::uint64_t v) {
    return Fq(fq_detail::mont_mul(fq_detail::kR2, Int::from_u64(v)));
  }
  /// Canonical fixed-width big-endian bytes; values ≥ p are rejected.
  static Fq from_bytes(ByteSpan bytes);
  /// Up to 2·kBytes big-endian bytes, reduced mod p (hash output to a
  /// near-uniform element).
  static Fq from_bytes_wide(ByteSpan bytes);
  /// Uniform element.
  static Fq random(hashing::RandomSource& rng);

  Int to_int() const { return fq_detail::mont_mul(v_, Int::from_u64(1)); }
  Bytes to_bytes() const { return to_int().to_bytes_be(kBytes); }
  constexpr bool is_zero() const { return v_.is_zero(); }

  constexpr Fq operator+(const Fq& o) const { return Fq(fq_detail::add_mod(v_, o.v_)); }
  constexpr Fq operator-(const Fq& o) const { return Fq(fq_detail::sub_mod(v_, o.v_)); }
  constexpr Fq operator-() const { return Fq() - *this; }
  constexpr Fq operator*(const Fq& o) const { return Fq(fq_detail::mont_mul(v_, o.v_)); }
  constexpr Fq squared() const { return *this * *this; }

  /// Throws on zero.
  Fq inverse() const;
  template <size_t LE>
  Fq pow(const bigint::BigInt<LE>& e) const {
    return bigint::pow_sliding_window(
        one(), *this, e, [](const Fq& x, const Fq& y) { return x * y; },
        [](const Fq& x) { return x.squared(); });
  }
  /// a^((p+1)/4) (p ≡ 3 mod 4); nullopt when a is not a square.
  std::optional<Fq> sqrt() const;

  friend constexpr bool operator==(const Fq&, const Fq&) = default;

 private:
  explicit constexpr Fq(const Int& mont) : v_(mont) {}

  Int v_{};  // Montgomery form
};

class Fq2 {
 public:
  constexpr Fq2() = default;  // zero
  constexpr Fq2(const Fq& re, const Fq& im) : re_(re), im_(im) {}

  static constexpr Fq2 zero() { return Fq2(); }
  static constexpr Fq2 one() { return Fq2(Fq::one(), Fq()); }

  constexpr const Fq& re() const { return re_; }
  constexpr const Fq& im() const { return im_; }
  constexpr bool is_zero() const { return re_.is_zero() && im_.is_zero(); }
  constexpr bool is_one() const { return *this == one(); }

  constexpr Fq2 operator+(const Fq2& o) const { return Fq2(re_ + o.re_, im_ + o.im_); }
  constexpr Fq2 operator-(const Fq2& o) const { return Fq2(re_ - o.re_, im_ - o.im_); }
  constexpr Fq2 operator-() const { return Fq2(-re_, -im_); }

  /// Karatsuba: 3 base-field products.
  constexpr Fq2 operator*(const Fq2& o) const {
    const Fq t0 = re_ * o.re_;
    const Fq t1 = im_ * o.im_;
    const Fq t2 = (re_ + im_) * (o.re_ + o.im_);
    return Fq2(t0 - t1, t2 - t0 - t1);
  }
  /// (a + bu)² = (a + b)(a − b) + 2ab·u.
  constexpr Fq2 squared() const {
    const Fq t1 = re_ * im_;
    return Fq2((re_ + im_) * (re_ - im_), t1 + t1);
  }
  constexpr Fq2 scale(const Fq& s) const { return Fq2(re_ * s, im_ * s); }
  /// Equals the p-power Frobenius on F_p2.
  constexpr Fq2 conjugate() const { return Fq2(re_, -im_); }
  constexpr Fq norm() const { return re_.squared() + im_.squared(); }

  /// Throws on zero.
  Fq2 inverse() const;
  template <size_t LE>
  Fq2 pow(const bigint::BigInt<LE>& e) const {
    return bigint::pow_sliding_window(
        one(), *this, e, [](const Fq2& x, const Fq2& y) { return x * y; },
        [](const Fq2& x) { return x.squared(); });
  }
  /// The complex method of field::Fp2::sqrt, returning the same root.
  std::optional<Fq2> sqrt() const;

  /// re || im, fixed width.
  Bytes to_bytes() const;
  static Fq2 from_bytes(ByteSpan bytes);

  friend constexpr bool operator==(const Fq2&, const Fq2&) = default;

 private:
  Fq re_, im_;
};

}  // namespace tre::bls12
