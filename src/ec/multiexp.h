// Bucketed Pippenger multi-exponentiation (the BDLO12 shape).
//
// Computes Σᵢ kᵢ·Pᵢ for N points and N scalars in roughly
// b/c · (N + 2^c) group additions instead of the ~1.3·b·N a naive
// per-point ladder pays, where b is the widest scalar's bit length and
// c the window width chosen from N. Each c-bit window keeps 2^c − 1
// bucket accumulators; point i is dropped into the bucket named by its
// window digit, the running-sum trick converts the buckets into the
// window's partial sum (Σ d·B_d via two adds per bucket), and a Horner
// fold with c doublings per step combines the windows top-down.
//
// The engine is generic over an `Ops` adapter; every group in the tree
// uses the one in ec/jacobian.h, ec::AffineOps, over its own field:
//
//   struct Ops {
//     using Acc = ...;                       // Jacobian accumulator
//     Acc    zero() const;                   // identity
//     void   add_point(Acc&, size_t i) const;// acc += P_i (mixed add; must
//                                            //   skip infinity points)
//     void   add(Acc&, const Acc&) const;    // acc += other accumulator
//     void   dbl(Acc&) const;                // acc = 2·acc
//     void   sub_point(Acc&, size_t i) const;// OPTIONAL: acc -= P_i (mixed
//                                            //   add of −P_i; enables the
//                                            //   signed-digit variant)
//   };
//
// When the adapter provides `sub_point` (negation is one field negation
// on y for short-Weierstrass curves), the signed-digit variant recodes
// each window digit into [−2^(c−1), 2^(c−1)]: a digit d > 2^(c−1) becomes
// d − 2^c with a carry into the next window, and negative digits reuse
// the positive bucket via subtraction. That halves the bucket array —
// cost ⌈b/c⌉·(N + 2^(c−1)) — which both shrinks the running-sum fold and
// lets the optimum window widen one bit earlier. `multiexp_auto` picks
// whichever integer cost estimate wins for the batch at hand.
//
// Windows are independent, so they fan out across the persistent work
// pool via tre::parallel_for — each worker owns its bucket array and
// writes one slot of `window_sums`; only the cheap Horner fold is
// serial. RLC batch-verification scalars are ~128 bits wide, so the
// effective width (max bit_length, not the limb capacity) halves the
// window count relative to full-width exponents for free.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "bigint/bigint.h"
#include "common/parallel.h"

namespace tre::ec {

/// Window width for a batch of `n` points with `scalar_bits`-wide
/// exponents: minimizes the ⌈b/c⌉·(n + 2^c) addition estimate over
/// c ∈ [1, 16] (the doubling term b is constant across c and ignored).
/// Deterministic integer arithmetic so the choice is stable across
/// platforms; PERF.md tabulates the resulting c per decade of N.
inline unsigned multiexp_window_bits(size_t n, size_t scalar_bits) {
  unsigned best = 1;
  std::uint64_t best_cost = ~std::uint64_t{0};
  for (unsigned c = 1; c <= 16; ++c) {
    std::uint64_t windows = (scalar_bits + c - 1) / c;
    std::uint64_t cost = windows * (n + (std::uint64_t{1} << c));
    if (cost < best_cost) {
      best_cost = cost;
      best = c;
    }
  }
  return best;
}

/// Σᵢ scalars[i]·P_i where the points live behind `ops` (indexed by i).
/// Returns ops.zero() for an empty batch. Scalars are plain unsigned
/// integers; zero scalars and infinity points cost nothing.
template <class Ops, size_t L>
typename Ops::Acc multiexp_pippenger(const Ops& ops,
                                     std::span<const bigint::BigInt<L>> scalars,
                                     unsigned threads = 0) {
  using Acc = typename Ops::Acc;
  const size_t n = scalars.size();
  Acc result = ops.zero();
  if (n == 0) return result;

  size_t bits = 0;
  for (const auto& s : scalars) bits = std::max(bits, s.bit_length());
  if (bits == 0) return result;

  const unsigned c = multiexp_window_bits(n, bits);
  const size_t num_windows = (bits + c - 1) / c;
  const std::uint32_t buckets_per_window = (std::uint32_t{1} << c) - 1;

  std::vector<Acc> window_sums(num_windows, ops.zero());
  tre::parallel_for(
      num_windows,
      [&](size_t w) {
        const size_t base = w * c;
        std::vector<Acc> buckets(buckets_per_window, ops.zero());
        for (size_t i = 0; i < n; ++i) {
          std::uint32_t digit = 0;
          for (unsigned b = 0; b < c && base + b < bits; ++b) {
            digit |= static_cast<std::uint32_t>(scalars[i].bit(base + b)) << b;
          }
          if (digit == 0) continue;
          ops.add_point(buckets[digit - 1], i);
        }
        // Running sum: Σ_{d=1}^{m} d·B_d as two adds per bucket.
        Acc running = ops.zero();
        Acc acc = ops.zero();
        for (std::uint32_t d = buckets_per_window; d >= 1; --d) {
          ops.add(running, buckets[d - 1]);
          ops.add(acc, running);
        }
        window_sums[w] = acc;
      },
      threads);

  for (size_t w = num_windows; w-- > 0;) {
    if (w + 1 < num_windows) {
      for (unsigned b = 0; b < c; ++b) ops.dbl(result);
    }
    ops.add(result, window_sums[w]);
  }
  return result;
}

/// True when `Ops` offers the optional mixed subtraction the signed-digit
/// variant needs.
template <class Ops>
concept MultiexpOpsWithSub =
    requires(const Ops& ops, typename Ops::Acc& acc, size_t i) {
      ops.sub_point(acc, i);
    };

/// Window width for the signed-digit variant: same search as
/// multiexp_window_bits but against the halved bucket count (and one
/// extra window for the final carry).
inline unsigned multiexp_window_bits_signed(size_t n, size_t scalar_bits) {
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

/// Signed-digit (wNAF-style) Pippenger: identical contract to
/// multiexp_pippenger, half the buckets per window. Requires
/// ops.sub_point. Parity with the unsigned fold is pinned by
/// tests/test_scalarmul.cpp.
template <MultiexpOpsWithSub Ops, size_t L>
typename Ops::Acc multiexp_pippenger_signed(
    const Ops& ops, std::span<const bigint::BigInt<L>> scalars,
    unsigned threads = 0) {
  using Acc = typename Ops::Acc;
  const size_t n = scalars.size();
  Acc result = ops.zero();
  if (n == 0) return result;

  size_t bits = 0;
  for (const auto& s : scalars) bits = std::max(bits, s.bit_length());
  if (bits == 0) return result;

  const unsigned c = multiexp_window_bits_signed(n, bits);
  const size_t base_windows = (bits + c - 1) / c;
  const size_t num_windows = base_windows + 1;  // room for the final carry
  const std::int32_t half = std::int32_t{1} << (c - 1);

  // Recode every scalar into digits in [−2^(c−1), 2^(c−1)]: carries
  // ripple upward through a scalar's windows, so the table is built in
  // one serial pass; the expensive window loop below stays parallel.
  std::vector<std::int32_t> digits(n * num_windows, 0);
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
        digits[i * num_windows + w] = d - (std::int32_t{1} << c);
        carry = 1;
      } else {
        digits[i * num_windows + w] = d;
        carry = 0;
      }
    }
    digits[i * num_windows + base_windows] = carry;
  }

  std::vector<Acc> window_sums(num_windows, ops.zero());
  tre::parallel_for(
      num_windows,
      [&](size_t w) {
        std::vector<Acc> buckets(static_cast<size_t>(half), ops.zero());
        for (size_t i = 0; i < n; ++i) {
          const std::int32_t d = digits[i * num_windows + w];
          if (d > 0) {
            ops.add_point(buckets[static_cast<size_t>(d) - 1], i);
          } else if (d < 0) {
            ops.sub_point(buckets[static_cast<size_t>(-d) - 1], i);
          }
        }
        Acc running = ops.zero();
        Acc acc = ops.zero();
        for (std::int32_t d = half; d >= 1; --d) {
          ops.add(running, buckets[static_cast<size_t>(d) - 1]);
          ops.add(acc, running);
        }
        window_sums[w] = acc;
      },
      threads);

  for (size_t w = num_windows; w-- > 0;) {
    if (w + 1 < num_windows) {
      for (unsigned b = 0; b < c; ++b) ops.dbl(result);
    }
    ops.add(result, window_sums[w]);
  }
  return result;
}

/// Dispatches between the unsigned and signed-digit folds by comparing
/// their integer cost estimates for this batch. Adapters without
/// sub_point always take the unsigned path.
template <class Ops, size_t L>
typename Ops::Acc multiexp_auto(const Ops& ops,
                                std::span<const bigint::BigInt<L>> scalars,
                                unsigned threads = 0) {
  if constexpr (MultiexpOpsWithSub<Ops>) {
    const size_t n = scalars.size();
    size_t bits = 0;
    for (const auto& s : scalars) bits = std::max(bits, s.bit_length());
    if (n != 0 && bits != 0) {
      const unsigned cu = multiexp_window_bits(n, bits);
      const std::uint64_t unsigned_cost =
          ((bits + cu - 1) / cu) * (n + (std::uint64_t{1} << cu));
      const unsigned cs = multiexp_window_bits_signed(n, bits);
      const std::uint64_t signed_cost =
          ((bits + cs - 1) / cs + 1) * (n + (std::uint64_t{1} << (cs - 1)));
      if (signed_cost < unsigned_cost) {
        return multiexp_pippenger_signed(ops, scalars, threads);
      }
    }
  }
  return multiexp_pippenger(ops, scalars, threads);
}

}  // namespace tre::ec
