// Montgomery modular arithmetic with a runtime limb count.
//
// One `MontCtx<L>` is built per modulus (base field p, scalar field q,
// RSW modulus n, ...). The active limb count `n` is derived from the
// modulus so that a 96-bit toy field does not pay for the 768-bit
// capacity of the limb array. Multiplication is CIOS.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

#include "bigint/bigint.h"

namespace tre::bigint {

/// a^e by the greedy sliding window, MSB first: a run of zero bits costs
/// one squaring each; otherwise the window takes the next at most kWindow
/// bits, trimmed to end on a set bit, so its value is odd and one table
/// entry a^1, a^3, ..., a^15 covers it. Exponents shorter than kWindow bits
/// build only the entries they can reach. `mul` and `sqr` are the element
/// type's product and square, so MontCtx::pow, field::Fp2::pow and the
/// BLS12-381 base field (bls12/fq.h) share this loop.
template <class T, size_t LE, class Mul, class Sqr>
T pow_sliding_window(const T& one, const T& a, const BigInt<LE>& e, Mul mul, Sqr sqr) {
  constexpr size_t kWindow = 4;
  const size_t bits = e.bit_length();
  if (bits == 0) return one;

  std::array<T, size_t{1} << (kWindow - 1)> odd;
  const size_t entries = size_t{1} << (std::min(bits, kWindow) - 1);
  odd[0] = a;
  if (entries > 1) {
    const T sq = sqr(a);
    for (size_t i = 1; i < entries; ++i) odd[i] = mul(odd[i - 1], sq);
  }

  T acc = one;
  size_t i = bits;
  while (i > 0) {
    if (!e.bit(i - 1)) {
      acc = sqr(acc);
      --i;
      continue;
    }
    size_t j = i >= kWindow ? i - kWindow : 0;
    while (!e.bit(j)) ++j;
    size_t val = 0;
    for (size_t b = i; b-- > j;) val = (val << 1) | static_cast<size_t>(e.bit(b));
    for (size_t s = 0; s < i - j; ++s) acc = sqr(acc);
    acc = mul(acc, odd[val >> 1]);
    i = j;
  }
  return acc;
}

template <size_t L>
class MontCtx {
 public:
  /// `modulus` must be odd and > 1.
  explicit MontCtx(const BigInt<L>& modulus) : m_(modulus) {
    require(modulus.is_odd() && modulus.bit_length() > 1, "MontCtx: modulus must be odd and > 1");
    n_ = (modulus.bit_length() + 63) / 64;

    // n0inv = -m^{-1} mod 2^64 via Newton iteration.
    std::uint64_t inv = m_.w[0];
    for (int i = 0; i < 6; ++i) inv *= 2 - m_.w[0] * inv;
    n0inv_ = ~inv + 1;  // = -inv mod 2^64

    // R mod m by 64n doublings, then R^2 mod m with one wide reduction.
    BigInt<L> r = mod(BigInt<L>::from_u64(1), m_);
    for (size_t i = 0; i < 64 * n_; ++i) r = addmod(r, r, m_);
    one_ = r;
    r2_ = mod_wide(mul_wide(r, r), m_);
    r3_ = mul(r2_, r2_);  // R^2·R^2·R^{-1} = R^3
  }

  const BigInt<L>& modulus() const { return m_; }
  size_t active_limbs() const { return n_; }
  const BigInt<L>& one() const { return one_; }  // 1 in Montgomery form
  /// R^3 mod m: one Montgomery mul by this lifts a plain a^{-1}R^{-1}
  /// (the output of mod_inverse on a Montgomery residue) back to a^{-1}R.
  const BigInt<L>& r3() const { return r3_; }

  BigInt<L> to_mont(const BigInt<L>& x) const { return mul(x, r2_); }

  BigInt<L> from_mont(const BigInt<L>& x) const {
    return mul(x, BigInt<L>::from_u64(1));
  }

  /// Montgomery product a*b*R^{-1} mod m (CIOS over the active limbs).
  ///
  /// The common limb counts dispatch to a kernel whose loop bounds are
  /// compile-time constants: the compiler fully unrolls the CIOS inner
  /// loops and keeps t[] in registers, which is worth ~3x over the
  /// runtime-bounded fallback on 6-limb (381-bit) operands. Both paths
  /// run the identical algorithm, so results are bit-equal.
  BigInt<L> mul(const BigInt<L>& a, const BigInt<L>& b) const {
    switch (n_) {
      case 2: if constexpr (L >= 2) return mul_fixed<2>(a, b); break;
      case 3: if constexpr (L >= 3) return mul_fixed<3>(a, b); break;
      case 4: if constexpr (L >= 4) return mul_fixed<4>(a, b); break;
      case 5: if constexpr (L >= 5) return mul_fixed<5>(a, b); break;
      case 6: if constexpr (L >= 6) return mul_fixed<6>(a, b); break;
      case 8: if constexpr (L >= 8) return mul_fixed<8>(a, b); break;
      default: break;
    }
    return mul_any(a, b);
  }

  BigInt<L> mul_any(const BigInt<L>& a, const BigInt<L>& b) const {
    const size_t n = n_;
    // t has n+2 limbs of live state.
    std::uint64_t t[L + 2] = {};
    for (size_t i = 0; i < n; ++i) {
      // t += a[i] * b
      unsigned __int128 carry = 0;
      for (size_t j = 0; j < n; ++j) {
        unsigned __int128 s = static_cast<unsigned __int128>(a.w[i]) * b.w[j] + t[j] + carry;
        t[j] = static_cast<std::uint64_t>(s);
        carry = s >> 64;
      }
      unsigned __int128 s = static_cast<unsigned __int128>(t[n]) + carry;
      t[n] = static_cast<std::uint64_t>(s);
      t[n + 1] = static_cast<std::uint64_t>(s >> 64);

      // t += (t[0] * n0inv mod 2^64) * m;  then t >>= 64
      std::uint64_t u = t[0] * n0inv_;
      carry = 0;
      for (size_t j = 0; j < n; ++j) {
        unsigned __int128 s2 = static_cast<unsigned __int128>(u) * m_.w[j] + t[j] + carry;
        t[j] = static_cast<std::uint64_t>(s2);
        carry = s2 >> 64;
      }
      unsigned __int128 s2 = static_cast<unsigned __int128>(t[n]) + carry;
      t[n] = static_cast<std::uint64_t>(s2);
      t[n + 1] += static_cast<std::uint64_t>(s2 >> 64);

      for (size_t j = 0; j <= n; ++j) t[j] = t[j + 1];
      t[n + 1] = 0;
    }

    BigInt<L> r;
    for (size_t j = 0; j < n; ++j) r.w[j] = t[j];
    // Conditional final subtraction: the CIOS invariant keeps t < 2m.
    // Subtract over the active limbs only so a borrow consumed by the
    // carry limb t[n] does not corrupt the inactive high limbs.
    if (t[n] != 0 || r >= m_) {
      unsigned __int128 borrow = 0;
      for (size_t j = 0; j < n; ++j) {
        unsigned __int128 s = static_cast<unsigned __int128>(r.w[j]) - m_.w[j] - borrow;
        r.w[j] = static_cast<std::uint64_t>(s);
        borrow = (s >> 64) & 1;
      }
    }
    return r;
  }

  BigInt<L> sqr(const BigInt<L>& a) const { return mul(a, a); }

  /// Modular add/sub of reduced residues (both inputs < m, so the limbs
  /// above the active count are zero). Same dispatch trick as mul():
  /// fixed-bound kernels beat the full-width addmod/submod because the
  /// L-limb compare and conditional correction shrink to n limbs.
  BigInt<L> add(const BigInt<L>& a, const BigInt<L>& b) const {
    switch (n_) {
      case 2: if constexpr (L >= 2) return add_fixed<2>(a, b); break;
      case 3: if constexpr (L >= 3) return add_fixed<3>(a, b); break;
      case 4: if constexpr (L >= 4) return add_fixed<4>(a, b); break;
      case 5: if constexpr (L >= 5) return add_fixed<5>(a, b); break;
      case 6: if constexpr (L >= 6) return add_fixed<6>(a, b); break;
      case 8: if constexpr (L >= 8) return add_fixed<8>(a, b); break;
      default: break;
    }
    return addmod(a, b, m_);
  }
  BigInt<L> sub(const BigInt<L>& a, const BigInt<L>& b) const {
    switch (n_) {
      case 2: if constexpr (L >= 2) return sub_fixed<2>(a, b); break;
      case 3: if constexpr (L >= 3) return sub_fixed<3>(a, b); break;
      case 4: if constexpr (L >= 4) return sub_fixed<4>(a, b); break;
      case 5: if constexpr (L >= 5) return sub_fixed<5>(a, b); break;
      case 6: if constexpr (L >= 6) return sub_fixed<6>(a, b); break;
      case 8: if constexpr (L >= 8) return sub_fixed<8>(a, b); break;
      default: break;
    }
    return submod(a, b, m_);
  }

  /// a^e mod m with a in Montgomery form; result in Montgomery form
  /// (pow_sliding_window above).
  template <size_t LE>
  BigInt<L> pow(const BigInt<L>& a_mont, const BigInt<LE>& e) const {
    return pow_sliding_window(
        one_, a_mont, e, [this](const BigInt<L>& x, const BigInt<L>& y) { return mul(x, y); },
        [this](const BigInt<L>& x) { return sqr(x); });
  }

  /// Convenience: plain-representation modular exponentiation.
  template <size_t LE>
  BigInt<L> pow_plain(const BigInt<L>& base, const BigInt<LE>& e) const {
    return from_mont(pow(to_mont(mod(base, m_)), e));
  }

 private:
  /// a >= b over the low N limbs (callers guarantee limbs >= N are equal).
  template <size_t N>
  static bool geq_fixed(const BigInt<L>& a, const BigInt<L>& b) {
    for (size_t j = N; j-- > 0;) {
      if (a.w[j] != b.w[j]) return a.w[j] > b.w[j];
    }
    return true;
  }

  /// CIOS with a compile-time limb bound — same algorithm as mul_any.
  template <size_t N>
  BigInt<L> mul_fixed(const BigInt<L>& a, const BigInt<L>& b) const {
    static_assert(N <= L);
    std::uint64_t t[N + 2] = {};
    for (size_t i = 0; i < N; ++i) {
      // t += a[i] * b
      unsigned __int128 carry = 0;
      for (size_t j = 0; j < N; ++j) {
        unsigned __int128 s = static_cast<unsigned __int128>(a.w[i]) * b.w[j] + t[j] + carry;
        t[j] = static_cast<std::uint64_t>(s);
        carry = s >> 64;
      }
      unsigned __int128 s = static_cast<unsigned __int128>(t[N]) + carry;
      t[N] = static_cast<std::uint64_t>(s);
      t[N + 1] = static_cast<std::uint64_t>(s >> 64);

      // t += (t[0] * n0inv mod 2^64) * m;  then t >>= 64
      std::uint64_t u = t[0] * n0inv_;
      carry = 0;
      for (size_t j = 0; j < N; ++j) {
        unsigned __int128 s2 = static_cast<unsigned __int128>(u) * m_.w[j] + t[j] + carry;
        t[j] = static_cast<std::uint64_t>(s2);
        carry = s2 >> 64;
      }
      unsigned __int128 s2 = static_cast<unsigned __int128>(t[N]) + carry;
      t[N] = static_cast<std::uint64_t>(s2);
      t[N + 1] += static_cast<std::uint64_t>(s2 >> 64);

      for (size_t j = 0; j <= N; ++j) t[j] = t[j + 1];
      t[N + 1] = 0;
    }

    BigInt<L> r;
    for (size_t j = 0; j < N; ++j) r.w[j] = t[j];
    if (t[N] != 0 || geq_fixed<N>(r, m_)) {
      unsigned __int128 borrow = 0;
      for (size_t j = 0; j < N; ++j) {
        unsigned __int128 s = static_cast<unsigned __int128>(r.w[j]) - m_.w[j] - borrow;
        r.w[j] = static_cast<std::uint64_t>(s);
        borrow = (s >> 64) & 1;
      }
    }
    return r;
  }

  template <size_t N>
  BigInt<L> add_fixed(const BigInt<L>& a, const BigInt<L>& b) const {
    static_assert(N <= L);
    BigInt<L> r;
    unsigned __int128 carry = 0;
    for (size_t j = 0; j < N; ++j) {
      unsigned __int128 s = static_cast<unsigned __int128>(a.w[j]) + b.w[j] + carry;
      r.w[j] = static_cast<std::uint64_t>(s);
      carry = s >> 64;
    }
    if (carry != 0 || geq_fixed<N>(r, m_)) {
      unsigned __int128 borrow = 0;
      for (size_t j = 0; j < N; ++j) {
        unsigned __int128 s = static_cast<unsigned __int128>(r.w[j]) - m_.w[j] - borrow;
        r.w[j] = static_cast<std::uint64_t>(s);
        borrow = (s >> 64) & 1;
      }
    }
    return r;
  }

  template <size_t N>
  BigInt<L> sub_fixed(const BigInt<L>& a, const BigInt<L>& b) const {
    static_assert(N <= L);
    BigInt<L> r;
    unsigned __int128 borrow = 0;
    for (size_t j = 0; j < N; ++j) {
      unsigned __int128 s = static_cast<unsigned __int128>(a.w[j]) - b.w[j] - borrow;
      r.w[j] = static_cast<std::uint64_t>(s);
      borrow = (s >> 64) & 1;
    }
    if (borrow != 0) {
      unsigned __int128 carry = 0;
      for (size_t j = 0; j < N; ++j) {
        unsigned __int128 s = static_cast<unsigned __int128>(r.w[j]) + m_.w[j] + carry;
        r.w[j] = static_cast<std::uint64_t>(s);
        carry = s >> 64;
      }
    }
    return r;
  }

  BigInt<L> m_;
  size_t n_;
  std::uint64_t n0inv_;
  BigInt<L> r2_;
  BigInt<L> r3_;
  BigInt<L> one_;
};

}  // namespace tre::bigint
