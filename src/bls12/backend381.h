// PairingBackend policy instantiating the generic TRE core
// (core/tre_core.h) on BLS12-381 — the type-3 curve today's deployments
// of this scheme (drand / tlock) run on.
//
// Type-3 artifact placement (there is no distortion map, so the two
// source groups are genuinely different and each artifact must pick one):
//   * Gu = G_1 (48-byte x-coordinates, 49 B compressed) carries the
//     SMALL, per-instant artifacts: H1(T), the key update I_T = s·H1(T),
//     epoch keys a·I_T, and the user's certifiable anchor A_1 = a·G1gen.
//     Updates are the scheme's broadcast traffic, so they get the short
//     group — exactly the BLS-signature placement drand uses.
//   * Gh = G_2 (97 B compressed) carries the long-lived keys and the
//     per-ciphertext header: the server generator G, sG, the user's
//     a·sG, and U = rG. Ciphertext headers are point-to-point, not
//     broadcast, so the long group costs little.
//   * Pairings are always ê(Gu, Gh): session key ê(r·H1(T), asG),
//     decryption ê(a·I_T, U), verification ê(H1(T), sG) == ê(I_T, G).
//     The per-message secrets r and a run the G_1 secret ladder before
//     the pairing (kSessionPowInGt), not a G_T power after it.
//
// Two §5.1 checks change shape (not meaning) relative to type-1:
//   * The user-key check becomes ê(A_1, sG) == ê(G1gen, a·sG) — the
//     anchor lives on the G_1 side, the server key on the G_2 side.
//   * The §5.3.4 same-secret check degenerates: A_1 = a·G1gen does not
//     involve the server generator at all, so "same secret as certified"
//     is a plain G_1 equality instead of a cross pairing.
#pragma once

#include <memory>

#include "bls12/bls12.h"
#include "core/tre_core.h"

namespace tre::bls12 {

/// Fixed-base engine for G_2: a real Lim–Lee comb (G2Comb), built once
/// per base through the generic core's comb cache. mul_secret keeps the
/// constant-pattern column walk.
struct Comb381 {
  std::shared_ptr<const G2Comb> comb;
  G2Point381 mul_secret(const core::Scalar& k) const { return comb->mul_secret(k); }
};

struct Bls381Backend {
  using Params = Bls12Ctx;
  using Gu = G1Point381;
  using Gh = G2Point381;
  using Gt = Gt381;
  using GhPrecomp = Comb381;

  /// Per-backend probe namespace: the 381 instantiation reports under
  /// "core.bls381.*" so both backends can run in one process without
  /// mixing counters (docs/OBSERVABILITY.md).
  static constexpr const char* kProbePrefix = "core.bls381.";
  /// The anchor a·G1gen lives in G_1, not the header group.
  static constexpr bool kAnchorIsGh = false;
  /// seal and open apply r and a on the G_1 secret ladder before the
  /// pairing, not as a G_T power: a 255-bit gt_pow_unitary costs about
  /// 3× a g1_mul_secret (E17 session_route_anatomy; PERF381=1 checks it).
  static constexpr bool kSessionPowInGt = false;

  // --- scalars ---------------------------------------------------------------
  static core::Scalar random_scalar(const Params& p, tre::hashing::RandomSource& rng) {
    return p.random_scalar(rng);
  }
  static size_t scalar_bytes(const Params& p) { return p.fr()->byte_len; }
  static const field::FpInt& group_order(const Params& p) { return p.r(); }
  /// The scalar field F_r (Shamir polynomials, Lagrange coefficients).
  static const field::FpCtx* scalar_field(const Params& p) { return p.fr(); }

  // --- hashing / generators --------------------------------------------------
  static Gu hash_tag(const Params& p, ByteSpan msg) { return p.hash_to_g1(msg); }
  static const Gh& header_base(const Params& p) { return p.g2_generator(); }
  /// The anchor base is the context's G_1 generator, independent of the
  /// server's G_2 generator.
  static const Gu& anchor_base(const Params& p, const Gh&) {
    return p.g1_generator();
  }

  // --- header-group (G_2) operations ------------------------------------------
  static Gh gh_mul_secret(const Params& p, const Gh& q, const core::Scalar& k) {
    return p.g2_mul_secret(q, k);  // constant-pattern fixed-window ladder
  }
  static bool gh_is_infinity(const Gh& q) { return q.inf; }
  static bool gh_in_subgroup(const Params& p, const Gh& q) {
    return p.g2_in_subgroup(q);
  }
  static bool gh_eq(const Gh& a, const Gh& b) {
    // Memberwise affine compare, exactly Bls12Ctx::g2_eq (which needs no
    // context state) — kept context-free for the generic structs.
    if (a.inf || b.inf) return a.inf == b.inf;
    return a.x == b.x && a.y == b.y;
  }
  static Bytes gh_to_bytes(const Gh& q) { return Bls12Ctx::get()->g2_to_bytes(q); }
  static size_t gh_wire_bytes(const Params& p) { return 1 + 2 * p.fp()->byte_len; }
  /// Σᵢ scalars[i]·points[i] on the twist (Feldman checks, RLC partial
  /// verification).
  static Gh gh_multiexp(const Params& p, std::span<const Gh> points,
                        std::span<const core::Scalar> scalars,
                        unsigned threads) {
    return p.g2_multiexp(points, scalars, threads);
  }
  static Gh gh_from_bytes(const Params& p, ByteSpan bytes) {
    return p.g2_from_bytes(bytes);  // throws tre::Error; subgroup-checked
  }

  // --- update-group (G_1) operations ------------------------------------------
  /// Variable-time wNAF, for public scalars only (the multi-exp tests'
  /// reference).
  static Gu gu_mul(const Params& p, const Gu& q, const core::Scalar& k) {
    return p.g1_mul(q, k);
  }
  static Gu gu_mul_secret(const Params& p, const Gu& q, const core::Scalar& k) {
    return p.g1_mul_secret(q, k);
  }
  /// Σᵢ scalars[i]·points[i] via bucketed Pippenger on the work pool.
  static Gu gu_multiexp(const Params& p, std::span<const Gu> points,
                        std::span<const core::Scalar> scalars,
                        unsigned threads) {
    return p.g1_multiexp(points, scalars, threads);
  }
  static bool gu_is_infinity(const Gu& q) { return q.inf; }
  static bool gu_eq(const Gu& a, const Gu& b) {
    if (a.inf || b.inf) return a.inf == b.inf;
    return a.x == b.x && a.y == b.y;
  }
  static Bytes gu_to_bytes(const Gu& q) { return Bls12Ctx::get()->g1_to_bytes(q); }
  static size_t gu_wire_bytes(const Params& p) { return 1 + p.fp()->byte_len; }
  static Gu gu_from_bytes(const Params& p, ByteSpan bytes) {
    return p.g1_from_bytes(bytes);  // throws tre::Error; subgroup-checked
  }

  // --- precomputation engines -------------------------------------------------
  static std::shared_ptr<const GhPrecomp> make_comb(const Params&, const Gh& base) {
    return std::make_shared<const Comb381>(
        Comb381{std::make_shared<const G2Comb>(Bls12Ctx::get(), base)});
  }

  // --- pairing ----------------------------------------------------------------
  /// ê(r·H1(T), asG) — the session key (the core passes r·H1(T)). asG
  /// is a long-lived user key, so its Miller lines come from the
  /// context's G_2 lines cache.
  static Gt pair_session(const Params& p, const Gh& asg, const Gu& h1t) {
    return p.pair_cached(h1t, asg);
  }
  /// ê(gu, gh) with neither side's lines cached — the opens' ê(a·I_T, U).
  /// The Miller loop runs over the G_2 argument, here the per-ciphertext
  /// U, so there is no PairPrecomp: nothing on the G_1 side to prepare.
  static Gt pair_fresh(const Params& p, const Gu& gu, const Gh& gh) {
    return p.pair(gu, gh);
  }
  static bool pairings_equal_uh(const Params& p, const Gu& u1, const Gh& h1,
                                const Gu& u2, const Gh& h2) {
    return p.pairings_equal(u1, h1, u2, h2);
  }
  static bool pairings_equal_hu(const Params& p, const Gh& h1, const Gu& u1,
                                const Gh& h2, const Gu& u2) {
    return p.pairings_equal(u1, h1, u2, h2);
  }
  /// pairings_equal_hu for a one-off h1 (an RLC-folded commitment): its
  /// lines are prepared uncached, h2's still come from the lines cache.
  static bool pairings_equal_fresh_hu(const Params& p, const Gh& h1, const Gu& u1,
                                      const Gh& h2, const Gu& u2) {
    return p.pairings_equal_fresh(u1, h1, u2, h2);
  }
  /// Pairing outputs are unitary: cyclotomic squarings + wNAF with
  /// conjugation-inverses.
  static Gt gt_pow_unitary(const Params& p, const Gt& k, const core::Scalar& e) {
    return p.gt_pow_unitary(k, e);
  }
  static Bytes gt_to_bytes(const Params& p, const Gt& k) { return p.gt_to_bytes(k); }
};

}  // namespace tre::bls12

namespace tre::core {
// The 381 scheme is compiled once into tre_bls12 (tre381.cpp).
extern template class BasicTreScheme<bls12::Bls381Backend>;
}  // namespace tre::core
