// Fixed-width multi-precision integers.
//
// `BigInt<L>` is an unsigned little-endian array of L 64-bit limbs with
// value semantics. All arithmetic is branch-simple and allocation-free;
// the hot modular paths go through `MontCtx` (bigint/montgomery.h).
//
// Widths used in this repo:
//   BigInt<4>   (256 bits)  — group-order scalars
//   BigInt<12>  (768 bits)  — base-field elements (all parameter sets)
//   BigInt<24>  (1536 bits) — double-width field products
//   BigInt<32>  (2048 bits) — RSW time-lock puzzle moduli
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/error.h"

namespace tre::bigint {

template <size_t L>
struct BigInt {
  static_assert(L >= 1);
  static constexpr size_t kLimbs = L;
  static constexpr size_t kBits = 64 * L;

  std::array<std::uint64_t, L> w{};

  constexpr BigInt() = default;

  static constexpr BigInt from_u64(std::uint64_t v) {
    BigInt r;
    r.w[0] = v;
    return r;
  }

  static BigInt from_hex(std::string_view hex) {
    require(!hex.empty() && hex.size() <= 2 * 8 * L, "BigInt::from_hex: bad length");
    BigInt r;
    size_t nibble = 0;
    for (size_t i = hex.size(); i-- > 0;) {
      char c = hex[i];
      std::uint64_t d;
      if (c >= '0' && c <= '9') d = static_cast<std::uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f') d = static_cast<std::uint64_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') d = static_cast<std::uint64_t>(c - 'A' + 10);
      else throw Error("BigInt::from_hex: non-hex character");
      r.w[nibble / 16] |= d << (4 * (nibble % 16));
      ++nibble;
    }
    return r;
  }

  /// Big-endian byte parsing; input must fit in L limbs.
  static BigInt from_bytes_be(ByteSpan bytes) {
    require(bytes.size() <= 8 * L, "BigInt::from_bytes_be: too long");
    BigInt r;
    size_t byte_idx = 0;
    for (size_t i = bytes.size(); i-- > 0;) {
      r.w[byte_idx / 8] |= static_cast<std::uint64_t>(bytes[i]) << (8 * (byte_idx % 8));
      ++byte_idx;
    }
    return r;
  }

  /// Big-endian serialization, fixed `len` bytes (value must fit).
  Bytes to_bytes_be(size_t len) const {
    Bytes out(len, 0);
    for (size_t i = 0; i < len && i < 8 * L; ++i) {
      out[len - 1 - i] = static_cast<std::uint8_t>(w[i / 8] >> (8 * (i % 8)));
    }
    // Anything beyond `len` bytes must be zero.
    for (size_t i = len; i < 8 * L; ++i) {
      require((w[i / 8] >> (8 * (i % 8)) & 0xff) == 0, "BigInt::to_bytes_be: value too large");
    }
    return out;
  }

  std::string to_hex() const {
    std::string out;
    bool leading = true;
    for (size_t i = L; i-- > 0;) {
      for (int shift = 60; shift >= 0; shift -= 4) {
        auto nib = static_cast<unsigned>((w[i] >> shift) & 0xf);
        if (leading && nib == 0) continue;
        leading = false;
        out.push_back("0123456789abcdef"[nib]);
      }
    }
    if (out.empty()) out.push_back('0');
    return out;
  }

  constexpr bool is_zero() const {
    for (auto limb : w)
      if (limb != 0) return false;
    return true;
  }

  constexpr bool is_odd() const { return (w[0] & 1) != 0; }

  constexpr bool bit(size_t i) const {
    return i < kBits && ((w[i / 64] >> (i % 64)) & 1) != 0;
  }

  constexpr size_t bit_length() const {
    for (size_t i = L; i-- > 0;) {
      if (w[i] != 0) return 64 * i + (64 - static_cast<size_t>(__builtin_clzll(w[i])));
    }
    return 0;
  }

  friend constexpr bool operator==(const BigInt&, const BigInt&) = default;

  friend constexpr std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) {
    for (size_t i = L; i-- > 0;) {
      if (a.w[i] != b.w[i]) return a.w[i] <=> b.w[i];
    }
    return std::strong_ordering::equal;
  }

  /// Truncating resize (narrowing requires the high limbs to be zero).
  template <size_t L2>
  BigInt<L2> resized() const {
    BigInt<L2> r;
    for (size_t i = 0; i < std::min(L, L2); ++i) r.w[i] = w[i];
    if constexpr (L2 < L) {
      for (size_t i = L2; i < L; ++i) require(w[i] == 0, "BigInt::resized: truncation");
    }
    return r;
  }
};

// ---------------------------------------------------------------------------
// Add / subtract (carry-propagating, in place), shifts.

/// a += b; returns the carry out (0 or 1).
template <size_t L>
constexpr std::uint64_t add_assign(BigInt<L>& a, const BigInt<L>& b) {
  unsigned __int128 carry = 0;
  for (size_t i = 0; i < L; ++i) {
    unsigned __int128 t = static_cast<unsigned __int128>(a.w[i]) + b.w[i] + carry;
    a.w[i] = static_cast<std::uint64_t>(t);
    carry = t >> 64;
  }
  return static_cast<std::uint64_t>(carry);
}

/// a -= b; returns the borrow out (0 or 1).
template <size_t L>
constexpr std::uint64_t sub_assign(BigInt<L>& a, const BigInt<L>& b) {
  unsigned __int128 borrow = 0;
  for (size_t i = 0; i < L; ++i) {
    unsigned __int128 t = static_cast<unsigned __int128>(a.w[i]) - b.w[i] - borrow;
    a.w[i] = static_cast<std::uint64_t>(t);
    borrow = (t >> 64) & 1;
  }
  return static_cast<std::uint64_t>(borrow);
}

template <size_t L>
constexpr BigInt<L> add(BigInt<L> a, const BigInt<L>& b) {
  add_assign(a, b);
  return a;
}

template <size_t L>
constexpr BigInt<L> sub(BigInt<L> a, const BigInt<L>& b) {
  sub_assign(a, b);
  return a;
}

/// Logical left shift by `n` bits (bits shifted past the top are lost).
template <size_t L>
constexpr BigInt<L> shl(const BigInt<L>& a, size_t n) {
  BigInt<L> r;
  size_t limb_shift = n / 64, bit_shift = n % 64;
  for (size_t i = L; i-- > 0;) {
    std::uint64_t v = 0;
    if (i >= limb_shift) {
      v = a.w[i - limb_shift] << bit_shift;
      if (bit_shift != 0 && i > limb_shift) {
        v |= a.w[i - limb_shift - 1] >> (64 - bit_shift);
      }
    }
    r.w[i] = v;
  }
  return r;
}

/// Logical right shift by `n` bits.
template <size_t L>
constexpr BigInt<L> shr(const BigInt<L>& a, size_t n) {
  BigInt<L> r;
  size_t limb_shift = n / 64, bit_shift = n % 64;
  for (size_t i = 0; i < L; ++i) {
    std::uint64_t v = 0;
    if (i + limb_shift < L) {
      v = a.w[i + limb_shift] >> bit_shift;
      if (bit_shift != 0 && i + limb_shift + 1 < L) {
        v |= a.w[i + limb_shift + 1] << (64 - bit_shift);
      }
    }
    r.w[i] = v;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Scalar recoding.

/// Upper bound on the number of wNAF digits of a BigInt<L>: one digit per
/// bit, plus one for the carry a negative digit can push past the top bit.
/// Sizes the stack scratch buffers of the allocation-free hot paths.
template <size_t L>
inline constexpr size_t kWnafMaxDigits = 64 * L + 1;

/// Width-w non-adjacent form: digits in {0, ±1, ±3, ..., ±(2^{w-1} − 1)},
/// least-significant first, with at most one nonzero digit in any `width`
/// consecutive positions. Shared by the G_1 scalar-multiplication engine
/// (ec/curve.cpp) and the unitary G_T exponentiation (field/fp2.cpp).
/// `width` must be in [2, 8]. Writes into `out` (capacity at least
/// kWnafMaxDigits<L>) and returns the digit count — the hot paths use a
/// stack buffer, so recoding allocates nothing.
template <size_t L>
inline size_t wnaf_into(BigInt<L> n, unsigned width, std::int8_t* out) {
  require(width >= 2 && width <= 8, "wnaf: width out of range");
  size_t count = 0;
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  const std::int64_t half = std::int64_t{1} << (width - 1);
  while (!n.is_zero()) {
    if (n.is_odd()) {
      std::int64_t d = static_cast<std::int64_t>(n.w[0] & mask);
      if (d >= half) d -= 2 * half;
      out[count++] = static_cast<std::int8_t>(d);
      if (d > 0) {
        sub_assign(n, BigInt<L>::from_u64(static_cast<std::uint64_t>(d)));
      } else {
        add_assign(n, BigInt<L>::from_u64(static_cast<std::uint64_t>(-d)));
      }
    } else {
      out[count++] = 0;
    }
    n = shr(n, 1);
  }
  return count;
}

/// Allocating convenience wrapper over wnaf_into.
template <size_t L>
inline std::vector<std::int8_t> wnaf(const BigInt<L>& n, unsigned width) {
  std::vector<std::int8_t> digits(kWnafMaxDigits<L>);
  digits.resize(wnaf_into(n, width, digits.data()));
  return digits;
}

// ---------------------------------------------------------------------------
// Multiplication (schoolbook, into a double-width result).

template <size_t LA, size_t LB>
constexpr BigInt<LA + LB> mul_wide(const BigInt<LA>& a, const BigInt<LB>& b) {
  BigInt<LA + LB> r;
  for (size_t i = 0; i < LA; ++i) {
    if (a.w[i] == 0) continue;
    unsigned __int128 carry = 0;
    for (size_t j = 0; j < LB; ++j) {
      unsigned __int128 t = static_cast<unsigned __int128>(a.w[i]) * b.w[j] +
                            r.w[i + j] + carry;
      r.w[i + j] = static_cast<std::uint64_t>(t);
      carry = t >> 64;
    }
    r.w[i + LB] += static_cast<std::uint64_t>(carry);
  }
  return r;
}

/// Multiply by a single 64-bit word, keeping the carry-out.
template <size_t L>
constexpr BigInt<L> mul_u64(const BigInt<L>& a, std::uint64_t b, std::uint64_t* carry_out = nullptr) {
  BigInt<L> r;
  unsigned __int128 carry = 0;
  for (size_t i = 0; i < L; ++i) {
    unsigned __int128 t = static_cast<unsigned __int128>(a.w[i]) * b + carry;
    r.w[i] = static_cast<std::uint64_t>(t);
    carry = t >> 64;
  }
  if (carry_out != nullptr) *carry_out = static_cast<std::uint64_t>(carry);
  return r;
}

// ---------------------------------------------------------------------------
// Division and reduction (binary long division; setup paths only — the
// hot modular arithmetic uses Montgomery form).

template <size_t L>
constexpr void divmod(const BigInt<L>& num, const BigInt<L>& den, BigInt<L>& quo,
                      BigInt<L>& rem) {
  require(!den.is_zero(), "divmod: division by zero");
  quo = BigInt<L>{};
  rem = BigInt<L>{};
  size_t nbits = num.bit_length();
  for (size_t i = nbits; i-- > 0;) {
    rem = shl(rem, 1);
    if (num.bit(i)) rem.w[0] |= 1;
    if (rem >= den) {
      sub_assign(rem, den);
      quo.w[i / 64] |= std::uint64_t{1} << (i % 64);
    }
  }
}

template <size_t L>
constexpr BigInt<L> mod(const BigInt<L>& a, const BigInt<L>& m) {
  BigInt<L> q, r;
  divmod(a, m, q, r);
  return r;
}

/// Reduces a wide value modulo an L-limb modulus.
template <size_t LW, size_t L>
constexpr BigInt<L> mod_wide(const BigInt<LW>& a, const BigInt<L>& m) {
  static_assert(LW >= L);
  BigInt<LW> q, r;
  divmod(a, m.template resized<LW>(), q, r);
  return r.template resized<L>();
}

// ---------------------------------------------------------------------------
// Modular helpers (values must already be < m).

template <size_t L>
constexpr BigInt<L> addmod(const BigInt<L>& a, const BigInt<L>& b, const BigInt<L>& m) {
  BigInt<L> r = a;
  std::uint64_t carry = add_assign(r, b);
  if (carry != 0 || r >= m) sub_assign(r, m);
  return r;
}

template <size_t L>
constexpr BigInt<L> submod(const BigInt<L>& a, const BigInt<L>& b, const BigInt<L>& m) {
  BigInt<L> r = a;
  if (sub_assign(r, b) != 0) add_assign(r, m);
  return r;
}

template <size_t L>
constexpr BigInt<L> mulmod(const BigInt<L>& a, const BigInt<L>& b, const BigInt<L>& m) {
  return mod_wide(mul_wide(a, b), m);
}

/// Inverse of `a` modulo odd `m` (binary extended GCD). Throws if a and m
/// are not coprime.
template <size_t L>
BigInt<L> mod_inverse(const BigInt<L>& a_in, const BigInt<L>& m) {
  require(m.is_odd() && !m.is_zero(), "mod_inverse: modulus must be odd");
  BigInt<L> a = a_in >= m ? mod(a_in, m) : a_in;
  require(!a.is_zero(), "mod_inverse: zero has no inverse");

  auto halve_mod = [&m](BigInt<L>& x) {
    // x <- x/2 (mod m), assuming x < m.
    if (x.is_odd()) {
      std::uint64_t carry = add_assign(x, m);
      x = shr(x, 1);
      if (carry != 0) x.w[L - 1] |= std::uint64_t{1} << 63;
    } else {
      x = shr(x, 1);
    }
  };

  BigInt<L> u = a, v = m;
  BigInt<L> x1 = BigInt<L>::from_u64(1), x2{};
  while (!(u == BigInt<L>::from_u64(1)) && !(v == BigInt<L>::from_u64(1))) {
    while (!u.is_odd()) {
      u = shr(u, 1);
      halve_mod(x1);
    }
    while (!v.is_odd()) {
      v = shr(v, 1);
      halve_mod(x2);
    }
    if (u >= v) {
      sub_assign(u, v);
      x1 = submod(x1, x2, m);
    } else {
      sub_assign(v, u);
      x2 = submod(x2, x1, m);
    }
    require(!u.is_zero() && !v.is_zero(), "mod_inverse: not coprime");
  }
  return u == BigInt<L>::from_u64(1) ? x1 : x2;
}

}  // namespace tre::bigint
