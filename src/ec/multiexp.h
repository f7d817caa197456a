// Bucketed Pippenger multi-exponentiation with signed window digits (the
// BDLO12 shape), on the Jacobian kernel of ec/jacobian.h.
//
// Computes Σᵢ kᵢ·Pᵢ for N affine points and N scalars in roughly
// (⌈b/c⌉ + 1)·(N + 2^(c−1)) group additions instead of the ~1.3·b·N a
// naive per-point ladder pays, where b is the widest scalar's bit length
// and c the window width chosen from N and b. Each scalar is recoded into
// c-bit window digits in [−2^(c−1), 2^(c−1)]: a digit d > 2^(c−1) becomes
// d − 2^c with a carry into the next window, and one extra window holds
// the last carry. Point i drops into bucket |d| of each window by one
// mixed addition, of −Pᵢ (y negated) when d < 0, so a window keeps
// 2^(c−1) buckets. The running-sum trick turns the buckets into the
// window's partial sum Σ d·B_d with two additions per bucket, and a
// Horner fold with c doublings per step combines the windows top-down.
//
// Windows are independent, so they fan out across the persistent work
// pool via tre::parallel_for — each worker owns its bucket array and
// writes one slot of `window_sums`; only the recode and the cheap Horner
// fold are serial. RLC batch-verification scalars are ~128 bits wide, so
// the effective width (max bit_length, not the limb capacity) halves the
// window count relative to full-width exponents for free.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "bigint/bigint.h"
#include "common/error.h"
#include "common/parallel.h"
#include "ec/jacobian.h"

namespace tre::ec {

/// Window width for a batch of `n` points with `scalar_bits`-wide
/// scalars: minimizes the (⌈b/c⌉ + 1)·(n + 2^(c−1)) addition estimate
/// over c ∈ [1, 16] (the doubling term b is constant across c and
/// ignored). Deterministic integer arithmetic, so the choice is stable
/// across platforms; docs/PERF.md tabulates the resulting c.
inline unsigned multiexp_window_bits(size_t n, size_t scalar_bits) {
  unsigned best = 1;
  std::uint64_t best_cost = ~std::uint64_t{0};
  for (unsigned c = 1; c <= 16; ++c) {
    std::uint64_t windows = (scalar_bits + c - 1) / c + 1;
    std::uint64_t cost = windows * (n + (std::uint64_t{1} << (c - 1)));
    if (cost < best_cost) {
      best_cost = cost;
      best = c;
    }
  }
  return best;
}

/// Σᵢ scalars[i]·points[i]. Sizes must match. Infinity for an empty
/// batch; zero scalars and infinity points cost nothing. Parity with the
/// naive per-point sum is pinned by tests/test_scalarmul.cpp (type-1 G1)
/// and tests/test_bls12.cpp (BLS12-381 G2).
template <class F, size_t L>
Affine<F> multiexp(std::span<const Affine<F>> points,
                   std::span<const bigint::BigInt<L>> scalars, unsigned threads = 0) {
  require(points.size() == scalars.size(), "multiexp: size mismatch");
  const size_t n = points.size();
  size_t bits = 0;
  for (const auto& s : scalars) bits = std::max(bits, s.bit_length());
  // A finite point supplies the field the accumulators live in
  // (field::Fp carries its modulus in a context pointer).
  const auto finite =
      std::find_if(points.begin(), points.end(), [](const Affine<F>& p) { return !p.inf; });
  if (bits == 0 || finite == points.end()) return {};
  const Jac<F> zero = jac_infinity(finite->x);

  const unsigned c = multiexp_window_bits(n, bits);
  const size_t base_windows = (bits + c - 1) / c;
  const size_t stride = base_windows + 1;  // room for a final carry
  const std::int32_t half = std::int32_t{1} << (c - 1);

  // Recode every scalar into digits in [−2^(c−1), 2^(c−1)]: carries
  // ripple upward through a scalar's windows, so the table is built in
  // one serial pass; the expensive window loop below stays parallel.
  std::vector<std::int32_t> digits(n * stride, 0);
  bool carried = false;
  for (size_t i = 0; i < n; ++i) {
    std::int32_t carry = 0;
    for (size_t w = 0; w < base_windows; ++w) {
      const size_t base = w * c;
      std::int32_t d = 0;
      for (unsigned b = 0; b < c && base + b < bits; ++b) {
        d |= static_cast<std::int32_t>(scalars[i].bit(base + b)) << b;
      }
      d += carry;  // the previous window's borrow compensation
      if (d > half) {  // 2^(c−1) itself stays positive: magnitude ≤ half
        digits[i * stride + w] = d - (std::int32_t{1} << c);
        carry = 1;
      } else {
        digits[i * stride + w] = d;
        carry = 0;
      }
    }
    digits[i * stride + base_windows] = carry;
    carried |= carry != 0;
  }
  // The carry window runs only when some scalar carried into it.
  const size_t num_windows = base_windows + (carried ? 1 : 0);

  std::vector<Jac<F>> window_sums(num_windows, zero);
  tre::parallel_for(
      num_windows,
      [&](size_t w) {
        std::vector<Jac<F>> buckets(static_cast<size_t>(half), zero);
        for (size_t i = 0; i < n; ++i) {
          const std::int32_t d = digits[i * stride + w];
          const Affine<F>& p = points[i];
          if (d == 0 || p.inf) continue;
          Jac<F>& bucket = buckets[static_cast<size_t>(d > 0 ? d : -d) - 1];
          bucket = d > 0 ? jac_madd(bucket, p.x, p.y) : jac_madd(bucket, p.x, -p.y);
        }
        // Running sum: Σ_{d=1}^{half} d·B_d as two adds per bucket.
        Jac<F> running = zero;
        Jac<F> acc = zero;
        for (size_t d = buckets.size(); d-- > 0;) {
          running = jac_add(running, buckets[d]);
          acc = jac_add(acc, running);
        }
        window_sums[w] = acc;
      },
      threads);

  Jac<F> result = zero;
  for (size_t w = num_windows; w-- > 0;) {
    if (w + 1 < num_windows) {
      for (unsigned b = 0; b < c; ++b) result = jac_dbl(result);
    }
    result = jac_add(result, window_sums[w]);
  }
  return to_affine(result);
}

}  // namespace tre::ec
