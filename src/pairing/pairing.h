// The symmetric bilinear map ê : G_1 × G_1 -> G_2.
//
// Realized as the modified Tate pairing on the supersingular curve:
//   ê(P, Q) = f_{q,P}(φ(Q))^{(p^2-1)/q},   φ(x, y) = (ζ·x, y)
// with ζ a primitive cube root of unity in F_p2 \ F_p (the distortion
// map; well-defined because ζ^3 = 1 keeps φ(Q) on the curve).
//
// Two Miller-loop implementations:
//   * pair()/miller_loop(): Jacobian-coordinate loop, inversion-free.
//     Line and vertical values are cleared of their F_p* denominators —
//     legal because c^((p^2-1)/q) = 1 for any c in F_p*.
//   * pair_affine(): the textbook affine loop (one field inversion per
//     step), kept as the cross-checked reference implementation and for
//     the ablation benchmark.
//
// The split into miller_loop() + final_exponentiation() enables products
// of pairings (multi-server decryption, equality checks) to share a
// single final exponentiation.
//
// Precondition: inputs lie in the order-q subgroup G_1 (guaranteed for
// all scheme values: generators, public keys and H1 outputs).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ec/curve.h"
#include "field/fp2.h"

namespace tre::pairing {

/// Target-group element (norm-1 subgroup of F_p2*, order q).
using Gt = field::Fp2;

/// Un-exponentiated Miller-loop value, kept as numerator/denominator so
/// products need only one inversion at the end.
struct MillerValue {
  field::Fp2 num;
  field::Fp2 den;

  MillerValue operator*(const MillerValue& o) const {
    return MillerValue{num * o.num, den * o.den};
  }
};

/// f_{q,P}(φ(Q)) without the final exponentiation. Either input at
/// infinity yields the neutral value.
MillerValue miller_loop(const ec::G1Point& p, const ec::G1Point& q);

/// Π f_{q,P_i}(φ(Q_i)) computed in ONE loop: the accumulator is squared
/// once per bit of q and every pair's line values are folded into it, so
/// n pairings pay for one set of accumulator squarings instead of n.
/// Backs pair_product and pairings_equal.
MillerValue miller_loop_multi(std::span<const std::pair<ec::G1Point, ec::G1Point>> pairs);

/// z -> z^((p^2-1)/q), mapping a Miller value into G_2.
Gt final_exponentiation(const ec::CurveCtx* curve, const MillerValue& f);

/// ê(P, Q). Returns 1 when either input is infinity.
Gt pair(const ec::G1Point& p, const ec::G1Point& q);

/// Reference affine implementation (slow; tests assert it agrees).
Gt pair_affine(const ec::G1Point& p, const ec::G1Point& q);

/// Π ê(p_i, q_i) with one shared final exponentiation.
Gt pair_product(std::span<const std::pair<ec::G1Point, ec::G1Point>> pairs);

/// ê(a1, a2) == ê(b1, b2), computed as one product ê(a1,a2)·ê(b1,-b2)
/// and a single final exponentiation (the scheme's verification paths).
bool pairings_equal(const ec::G1Point& a1, const ec::G1Point& a2,
                    const ec::G1Point& b1, const ec::G1Point& b2);

/// Identity of G_2.
Gt gt_identity(const ec::CurveCtx* curve);

/// Miller loop with a precomputed first argument.
///
/// The loop's point arithmetic depends only on P, so for a P reused across
/// many pairings (a key update I_T shared by every ciphertext under one
/// tag, an epoch key, a server public key) the affine line coefficients
/// (slope, point) of every step can be computed once. pair(Q) then only
/// evaluates the stored lines at φ(Q) — about half the field work of a
/// full Miller loop. Values equal pair(P, Q) exactly (and pair(Q, P): the
/// pairing is symmetric on the cyclic G_1).
///
/// Precondition (as for pair()): P in the order-q subgroup. Degenerate
/// bases (infinity, small order) fall back to the generic loop.
class MillerPrecomp {
 public:
  explicit MillerPrecomp(const ec::G1Point& p);

  const ec::G1Point& point() const { return p_; }

  MillerValue miller(const ec::G1Point& q) const;
  Gt pair(const ec::G1Point& q) const;

 private:
  enum class StepKind : std::uint8_t {
    kSquare,    // square the accumulator (once per bit)
    kLine,      // numerator: line through V (slope lambda at (x, y)); denominator: vertical at x_after
    kVertical,  // numerator: vertical at x (2-torsion / V == -P); loop ends
  };
  struct Step {
    StepKind kind;
    field::Fp lambda, x, y;  // line data (unused for kSquare)
    field::Fp x_after;       // vertical denominator after the step (kLine)
  };

  ec::G1Point p_;
  bool degenerate_ = false;  // infinity or non-subgroup base: generic path
  std::vector<Step> steps_;
};

}  // namespace tre::pairing
