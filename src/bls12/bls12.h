// BLS12-381: a modern type-3 (asymmetric) pairing backend.
//
// The paper's construction works over "any Gap Diffie-Hellman group";
// its 2005-era instantiation is the symmetric supersingular curve in
// ec/ + pairing/. This module adds the curve today's deployments of this
// very scheme (drand / tlock) run on:
//
//   E  : y² = x³ + 4           over F_p           (G_1, 48-byte points)
//   E' : y² = x³ + 4(1+u)      over F_p2          (G_2, the M-twist)
//   ê  : G_1 × G_2 -> F_p12,   optimal ate pairing, r = group order
//
// Everything derives from the single 64-bit BLS parameter z:
//   r = z⁴ − z² + 1,  p = (z−1)²·r/3 + z
// and the context validates all of it at construction (primality, curve
// orders annihilating sampled points, G_2 generator satisfying the
// Frobenius eigenvalue π(Q) = [p]Q, the cube root of unity β of the G_1
// membership test acting as −z² on the generator), so no unchecked
// magic constants exist in the code.
//
// Every coordinate is a bls12::Fq (bls12/fq.h): a six-limb residue with
// an inline no-carry Montgomery product, no context pointer
// (docs/PERF.md "BLS12-381 base field").
//
// Pairing engine (docs/PERF.md "BLS12-381 pairing engine"):
//   * Miller loop in homogeneous projective coordinates over F_p2 on the
//     twist — no inversions — with each line folded in through the
//     sparse fp12_mul_by_014 (M-twist lines are c0 + c1·v + c4·vw).
//   * The G_2 argument's line coefficients depend only on Q, so they are
//     precomputed once into a G2Prepared and, for recurring keys (the
//     server's G and sG, a user's a·sG), memoized in a SnapshotCache
//     keyed by the compressed point ("core.bls381.pair.lines.*" probes).
//   * Final exponentiation: Frobenius easy part, then the hard part
//     (p⁴−p²+1)/r via the exact base-p decomposition in powers of z with
//     cyclotomic squarings — value-identical to the generic power.
//   * Scalar multiplication: the shared Jacobian kernel (ec/jacobian.h)
//     at Fq and Fq2 — width-4 wNAF for public scalars, the
//     constant-pattern fixed-window ladder for secret ones, a Lim–Lee
//     comb (G2Comb) for fixed G_2 bases and the Pippenger multi-exp, the
//     same code the type-1 backend runs at field::Fp.
//   * pair_reference()/pairings_equal_reference() keep the original
//     affine-over-F_p12 loop (inversions batched across lockstep pairs
//     by Montgomery's trick) as the cross-checked oracle; tests assert
//     the fast engine agrees bit-for-bit after final exponentiation.
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "bls12/tower.h"
#include "common/snapshot_cache.h"
#include "ec/jacobian.h"
#include "hashing/drbg.h"

namespace tre::bls12 {

/// Scalars mod r.
using Scalar = FpInt;

/// Point on E(F_p): y² = x³ + 4.
using G1Point381 = ec::Affine<Fq>;

/// Point on the twist E'(F_p2): y² = x³ + 4(1+u).
using G2Point381 = ec::Affine<Fq2>;

/// Pairing output: unit-subgroup element of F_p12.
using Gt381 = Fp12;

/// Precomputed Miller-loop line coefficients for a fixed G_2 argument:
/// one (a, b, c) triple per doubling step plus one per set bit of |z|.
/// At evaluation only b·x_P and c·y_P remain, so pairing against a
/// prepared Q skips all G_2 point arithmetic.
struct G2Prepared {
  struct Coeff {
    Fq2 a, b, c;
  };
  std::vector<Coeff> coeffs;
  bool inf = false;
};

class Bls12Ctx;

/// Lim–Lee fixed-base comb for G_2 over |r| bits (the analog of
/// ec::G1Precomp): 8 scalar bits per column, so a 255-bit multiplication
/// costs 32 doublings and at most 32 mixed additions instead of a ladder.
class G2Comb : public ec::Comb<Fq2> {
 public:
  G2Comb(const std::shared_ptr<const Bls12Ctx>& ctx, const G2Point381& base);
};

class Bls12Ctx {
 public:
  /// Builds (and caches) the validated context. Throws if any derived
  /// constant fails its self-check.
  static std::shared_ptr<const Bls12Ctx> get();

  /// The generic field::Fp context for p (serialization width; the
  /// oracle the tests hold Fq against). The backend's own arithmetic runs
  /// on Fq (bls12/fq.h).
  const FpCtx* fp() const { return fp_.get(); }
  const FpCtx* fr() const { return fr_.get(); }
  const TowerCtx& tower() const { return *tower_; }
  const FpInt& p() const { return fp_->p; }
  const FpInt& r() const { return fr_->p; }

  const G1Point381& g1_generator() const { return g1_gen_; }
  const G2Point381& g2_generator() const { return g2_gen_; }

  // --- G1 ---------------------------------------------------------------
  G1Point381 g1_infinity() const;
  G1Point381 g1_add(const G1Point381& a, const G1Point381& b) const;
  G1Point381 g1_neg(const G1Point381& a) const;
  G1Point381 g1_mul(const G1Point381& a, const Scalar& k) const;
  /// Fixed-window ladder with a constant double/add pattern (dummy
  /// additions on zero windows) — for long-lived secrets.
  G1Point381 g1_mul_secret(const G1Point381& a, const Scalar& k) const;
  /// Σᵢ scalars[i]·points[i] via bucketed Pippenger (src/ec/multiexp.h);
  /// windows fan out on the persistent work pool (`threads` as in
  /// tre::parallel_for). Sizes must match; infinity for an empty batch.
  G1Point381 g1_multiexp(std::span<const G1Point381> points,
                         std::span<const Scalar> scalars,
                         unsigned threads = 0) const;
  bool g1_eq(const G1Point381& a, const G1Point381& b) const;
  bool g1_on_curve(const G1Point381& a) const;
  /// Membership in the order-r subgroup: φ(P) == −[z²]P for the GLV
  /// endomorphism φ (Scott's test; two 64-bit ladders, no inversion).
  bool g1_in_subgroup(const G1Point381& a) const;
  /// Full-domain hash onto the order-r subgroup (try-and-increment +
  /// cofactor clearing) — H1 for the type-3 scheme.
  G1Point381 hash_to_g1(ByteSpan msg) const;
  Bytes g1_to_bytes(const G1Point381& a) const;  // compressed, 49 bytes
  G1Point381 g1_from_bytes(ByteSpan bytes) const;

  // --- G2 (twist coordinates) --------------------------------------------
  G2Point381 g2_infinity() const;
  G2Point381 g2_add(const G2Point381& a, const G2Point381& b) const;
  G2Point381 g2_neg(const G2Point381& a) const;
  G2Point381 g2_mul(const G2Point381& a, const Scalar& k) const;
  G2Point381 g2_mul_secret(const G2Point381& a, const Scalar& k) const;
  /// Σᵢ scalars[i]·points[i] on the twist — same engine as g1_multiexp.
  /// Feeds Feldman commitment checks and RLC batch verification of
  /// threshold public shares.
  G2Point381 g2_multiexp(std::span<const G2Point381> points,
                         std::span<const Scalar> scalars,
                         unsigned threads = 0) const;
  bool g2_eq(const G2Point381& a, const G2Point381& b) const;
  bool g2_on_curve(const G2Point381& a) const;
  bool g2_in_subgroup(const G2Point381& a) const;
  Bytes g2_to_bytes(const G2Point381& a) const;  // 193 bytes (re|im x, y sign)
  G2Point381 g2_from_bytes(ByteSpan bytes) const;

  // --- Pairing -------------------------------------------------------------
  /// ê(P, Q) for P ∈ G_1, Q ∈ G_2; returns 1 when either is infinity.
  Gt381 pair(const G1Point381& p, const G2Point381& q) const;

  /// ê(P, Q) with Q's Miller lines served from the context's
  /// SnapshotCache ("core.bls381.pair.lines.{hit,miss}"). Use for
  /// recurring G_2 arguments (server keys, a·sG); fresh per-ciphertext
  /// headers should go through pair() to keep the cache hot-key-only.
  Gt381 pair_cached(const G1Point381& p, const G2Point381& q) const;

  /// ê(a1, a2) == ê(b1, b2) (the scheme's verification shape): one
  /// shared-squaring Miller loop over both pairs and one final
  /// exponentiation. Both G_2 arguments' lines come from the cache: use
  /// it for long-lived keys.
  bool pairings_equal(const G1Point381& a1, const G2Point381& a2,
                      const G1Point381& b1, const G2Point381& b2) const;
  /// The same check for a one-off a2 (an RLC-folded commitment): its
  /// lines are prepared uncached, so it never enters the cache.
  bool pairings_equal_fresh(const G1Point381& a1, const G2Point381& a2,
                            const G1Point381& b1, const G2Point381& b2) const;

  /// Line precomputation for a fixed Q (no cache / via the lines cache).
  std::shared_ptr<const G2Prepared> prepare_g2(const G2Point381& q) const;
  std::shared_ptr<const G2Prepared> prepare_g2_cached(const G2Point381& q) const;

  /// Un-exponentiated optimal-ate Miller value f_{z,Q}(P). Exposed (with
  /// final_exponentiation) so products of pairings can share one final
  /// exponentiation, and for the bench's sub-timings.
  Fp12 miller_loop(const G1Point381& p, const G2Prepared& q) const;

  /// f^((p¹²−1)/r): Frobenius easy part + cyclotomic hard part
  /// ("core.bls381.finalexp" counts invocations). Value-identical to the
  /// generic power by the validated hard exponent.
  Fp12 final_exponentiation(const Fp12& f) const;

  /// The original affine-over-F_p12 engine, kept as the cross-check
  /// oracle (slope inversions batched across lockstep pairs via
  /// Montgomery's trick — the only change from the seed loop).
  Gt381 pair_reference(const G1Point381& p, const G2Point381& q) const;
  bool pairings_equal_reference(const G1Point381& a1, const G2Point381& a2,
                                const G1Point381& b1, const G2Point381& b2) const;

  Gt381 gt_pow(const Gt381& a, const Scalar& e) const;
  /// Same value for unit-norm (pairing-output) elements, via cyclotomic
  /// squarings and width-5 wNAF with free conjugation-inverses.
  Gt381 gt_pow_unitary(const Gt381& a, const Scalar& e) const;
  bool gt_eq(const Gt381& a, const Gt381& b) const { return fp12_eq(a, b); }
  Bytes gt_to_bytes(const Gt381& a) const { return fp12_to_bytes(a); }

  /// Uniform scalar in [1, r).
  Scalar random_scalar(tre::hashing::RandomSource& rng) const;

 private:
  Bls12Ctx();

  // Untwist E'(F_p2) -> E(F_p12): (x, y) -> (x/w², y/w³).
  struct PointFp12 {
    Fp12 x, y;
    bool inf = true;
  };
  PointFp12 untwist(const G2Point381& q) const;
  PointFp12 fp12_point_frobenius(const PointFp12& a) const;
  Fp12 miller_ate_reference(
      std::span<const std::pair<G1Point381, G2Point381>> pairs) const;
  Fp12 miller_loop_multi(
      std::span<const std::pair<G1Point381, const G2Prepared*>> pairs) const;
  /// ê(a1, a2) == ê(b1, b2) from prepared lines, none at infinity.
  bool lines_equal(const G1Point381& a1, const G2Prepared& a2, const G1Point381& b1,
                   const G2Prepared& b2) const;
  Fp12 hard_part(const Fp12& f) const;

  std::uint64_t abs_z_;
  std::shared_ptr<const FpCtx> fp_;
  std::shared_ptr<const FpCtx> fr_;
  std::unique_ptr<TowerCtx> tower_;
  FpInt g1_cofactor_;                 // (z-1)²/3
  FpInt g2_cofactor_;                 // #E'(F_p2)/r — derived + validated
  bigint::BigInt<24> hard_exponent_;  // (p⁴ - p² + 1)/r
  Fq2 twist_b_;                       // 4(1+u)
  Fq2 twist_b3_;                      // 3·4(1+u) — doubling-step constant
  Fq half_;                           // 1/2 — doubling-step constant
  Fq beta_;                           // φ(x, y) = (βx, y) acts on G1 as −[z²]
  Fp12 w2_inv_, w3_inv_;              // untwist constants
  G1Point381 g1_gen_;
  G2Point381 g2_gen_;
  /// Prepared-lines memo for recurring G_2 keys, keyed by compressed
  /// bytes. Mutable: the context is shared const; the cache is
  /// first-write-wins over deterministic values.
  mutable SnapshotCache<std::shared_ptr<const G2Prepared>> g2_lines_;
};

}  // namespace tre::bls12
