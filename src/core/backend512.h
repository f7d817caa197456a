// PairingBackend policy for the legacy type-1 curve family (tre-512 and
// the tre-toy-* parameter sets): the 2005-era supersingular curve
// y² = x³ + 1 over F_p with the distortion-map modified Weil/Tate
// pairing. Both source groups are the SAME order-q subgroup of E(F_p),
// so Gu == Gh == ec::G1Point and every artifact-placement question is
// trivial; the orientation helpers below preserve the exact historical
// argument order of each pairing call site, which keeps this
// instantiation bit-identical to the pre-template scheme (the golden
// vectors in test_backend_identity pin that down).
#pragma once

#include <memory>

#include "core/tre_core.h"
#include "ec/curve.h"
#include "pairing/pairing.h"
#include "params/params.h"

namespace tre::core {

struct Tre512Backend {
  using Params = params::GdhParams;
  using Gu = ec::G1Point;
  using Gh = ec::G1Point;
  using Gt = pairing::Gt;
  using GhPrecomp = ec::G1Precomp;
  using PairPrecomp = pairing::MillerPrecomp;

  /// Probe prefix: the historical "core.*" names (docs/OBSERVABILITY.md).
  static constexpr const char* kProbePrefix = "core.";
  /// On a symmetric pairing the user's anchor aG lives in the header
  /// group, so it shares the server-generator comb table.
  static constexpr bool kAnchorIsGh = true;
  /// seal and open apply r and a as an F_p2 power of the pairing: it
  /// costs about a fifth of a secret ladder on the 512-bit curve (E17
  /// session_route_anatomy; PERF381=1 checks it).
  static constexpr bool kSessionPowInGt = true;

  // --- scalars ---------------------------------------------------------------
  static Scalar random_scalar(const Params& p, tre::hashing::RandomSource& rng) {
    return params::random_scalar(p, rng);
  }
  static size_t scalar_bytes(const Params& p) { return p.scalar_bytes(); }
  static const field::FpInt& group_order(const Params& p) { return p.group_order(); }
  /// The scalar field F_q (mod-group-order arithmetic for Shamir
  /// polynomials and Lagrange coefficients).
  static const field::FpCtx* scalar_field(const Params& p) { return p.curve->fq.get(); }

  // --- hashing / generators --------------------------------------------------
  static Gu hash_tag(const Params& p, ByteSpan msg) {
    return ec::hash_to_g1(p.ctx(), msg);
  }
  static const Gh& header_base(const Params& p) { return p.base; }
  /// Type-1: the anchor base IS the server's generator.
  static const Gu& anchor_base(const Params&, const Gh& server_g) { return server_g; }

  // --- header-group (Gh) operations ------------------------------------------
  static Gh gh_mul_secret(const Params&, const Gh& p, const Scalar& k) {
    return p.mul_secret(k);
  }
  static bool gh_is_infinity(const Gh& p) { return p.is_infinity(); }
  static bool gh_in_subgroup(const Params&, const Gh& p) { return p.in_subgroup(); }
  static bool gh_eq(const Gh& a, const Gh& b) { return a == b; }
  static Bytes gh_to_bytes(const Gh& p) { return p.to_bytes_compressed(); }
  static size_t gh_wire_bytes(const Params& p) { return p.g1_compressed_bytes(); }
  /// Σᵢ scalars[i]·points[i] in the header group (same subgroup here).
  static Gh gh_multiexp(const Params& p, std::span<const Gh> points,
                        std::span<const Scalar> scalars, unsigned threads) {
    return ec::g1_multiexp(p.ctx(), points, scalars, threads);
  }
  static Gh gh_from_bytes(const Params& p, ByteSpan bytes) {
    Gh q = ec::G1Point::from_bytes(p.ctx(), bytes);
    // Reject points on the curve but outside the order-q subgroup
    // (small-subgroup / invalid-point hardening).
    require(q.in_subgroup(), "deserialization: point outside the order-q subgroup");
    return q;
  }

  // --- update-group (Gu) operations: the same group on this curve ------------
  /// Variable-time wNAF, for public scalars only (the multi-exp tests'
  /// reference).
  static Gu gu_mul(const Params&, const Gu& q, const Scalar& k) { return q.mul(k); }
  static Gu gu_mul_secret(const Params& p, const Gu& q, const Scalar& k) {
    return gh_mul_secret(p, q, k);
  }
  /// Σᵢ scalars[i]·points[i] via bucketed Pippenger on the work pool.
  static Gu gu_multiexp(const Params& p, std::span<const Gu> points,
                        std::span<const Scalar> scalars, unsigned threads) {
    return ec::g1_multiexp(p.ctx(), points, scalars, threads);
  }
  static bool gu_is_infinity(const Gu& p) { return p.is_infinity(); }
  static bool gu_in_subgroup(const Params& p, const Gu& q) {
    return gh_in_subgroup(p, q);
  }
  static bool gu_eq(const Gu& a, const Gu& b) { return a == b; }
  static Bytes gu_to_bytes(const Gu& p) { return p.to_bytes_compressed(); }
  static size_t gu_wire_bytes(const Params& p) { return p.g1_compressed_bytes(); }
  static Gu gu_from_bytes(const Params& p, ByteSpan bytes) {
    return gh_from_bytes(p, bytes);
  }

  // --- precomputation engines -------------------------------------------------
  static std::shared_ptr<const GhPrecomp> make_comb(const Params&, const Gh& base) {
    return std::make_shared<const ec::G1Precomp>(base);
  }
  static std::shared_ptr<const PairPrecomp> make_lines(const Params&, const Gu& fixed) {
    return std::make_shared<const pairing::MillerPrecomp>(fixed);
  }

  // --- pairing ----------------------------------------------------------------
  // Each named operation preserves its historical call-site orientation.
  /// Encrypt-side session key ê(asG, H1(T)) (or its r-multiple).
  static Gt pair_session(const Params&, const Gh& asg, const Gu& h1t) {
    return pairing::pair(asg, h1t);
  }
  /// ê(u1, h1) == ê(u2, h2) — the user-key check orientation.
  static bool pairings_equal_uh(const Params&, const Gu& u1, const Gh& h1,
                                const Gu& u2, const Gh& h2) {
    return pairing::pairings_equal(u1, h1, u2, h2);
  }
  /// ê(h1, u1) == ê(h2, u2) — the update-verification orientation.
  static bool pairings_equal_hu(const Params&, const Gh& h1, const Gu& u1,
                                const Gh& h2, const Gu& u2) {
    return pairing::pairings_equal(h1, u1, h2, u2);
  }
  /// pairings_equal_hu for a one-off h1; the type-1 pairing caches no
  /// lines, so it is the same check.
  static bool pairings_equal_fresh_hu(const Params& p, const Gh& h1, const Gu& u1,
                                      const Gh& h2, const Gu& u2) {
    return pairings_equal_hu(p, h1, u1, h2, u2);
  }
  /// Pairing outputs are norm-1, so the power runs the conjugate-wNAF.
  static Gt gt_pow_unitary(const Params&, const Gt& k, const Scalar& e) {
    return k.pow_unitary(e);
  }
  static Bytes gt_to_bytes(const Params&, const Gt& k) { return k.to_bytes(); }
};

}  // namespace tre::core
