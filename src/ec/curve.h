// The Gap Diffie-Hellman group G_1.
//
// E : y^2 = x^3 + 1 over F_p with p = 12*q*r - 1 (p, q prime). Because
// p ≡ 2 (mod 3), E is supersingular with #E(F_p) = p + 1 = 12*q*r, and
// G_1 is its order-q subgroup. Because p ≡ 3 (mod 4), F_p2 = F_p[i] and
// the curve has embedding degree 2: q | p^2 - 1.
//
// This is exactly the class of curves the paper (via Boneh-Franklin [4]
// and BLS [5]) instantiates its GDH group with.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ec/jacobian.h"
#include "field/fp.h"
#include "field/fp2.h"

namespace tre::ec {

struct CurveCtx {
  std::string name;
  std::shared_ptr<const field::FpCtx> fp;  // base field F_p
  std::shared_ptr<const field::FpCtx> fq;  // scalar field Z_q
  field::FpInt p;
  field::FpInt q;
  field::FpInt cofactor;        // (p+1)/q = 12*r
  field::FpInt cube_root_exp;   // (2p-1)/3: x -> x^e is the cube root map
  field::Fp2 zeta;              // primitive cube root of unity in F_p2 \ F_p

  /// Builds the context; validates p ≡ 3 (mod 4), p ≡ 2 (mod 3), and
  /// q | p + 1, and derives zeta = (-1 + sqrt(3)·i) / 2.
  static std::shared_ptr<const CurveCtx> create(std::string name,
                                                const field::FpInt& p,
                                                const field::FpInt& q);
};

class G1Point {
 public:
  G1Point() = default;  // null point: usable only as assignment target

  static G1Point infinity(const CurveCtx* curve);

  /// Constructs from affine coordinates; throws if (x, y) is off-curve.
  static G1Point make(const CurveCtx* curve, const field::Fp& x, const field::Fp& y);

  bool is_infinity() const { return infinity_; }
  const field::Fp& x() const;
  const field::Fp& y() const;
  const CurveCtx* curve() const { return curve_; }

  G1Point operator+(const G1Point& o) const;
  G1Point operator-() const;
  G1Point operator-(const G1Point& o) const { return *this + (-o); }
  G1Point doubled() const;

  /// The point as the Jacobian kernel (ec/jacobian.h) reads it.
  Affine<field::Fp> affine() const { return {x_, y_, infinity_}; }

  /// Variable-base scalar multiplication (ec::mul_wnaf). Variable time in
  /// the scalar: use for PUBLIC scalars only.
  G1Point mul(const field::FpInt& k) const;

  /// Variable-base multiplication with a fixed doubling/addition schedule
  /// (ec::mul_secret over ceil(max(|q|, |k|)/4) windows). Use for SECRET
  /// scalars (server s, user a, encryption nonces). The limb arithmetic
  /// underneath is not constant-time — see docs/PERF.md.
  G1Point mul_secret(const field::FpInt& k) const;

  /// Membership in the order-q subgroup (q * P == O).
  bool in_subgroup() const;

  /// Uncompressed serialization: 0x04 || x || y (0x00-tag for infinity),
  /// always 1 + 2*byte_len bytes.
  Bytes to_bytes() const;

  /// Compressed serialization: (0x02 | y-parity) || x, 1 + byte_len bytes.
  /// This is the wire format of time-bound key updates (short signatures).
  Bytes to_bytes_compressed() const;

  /// Parses either serialization, validating curve membership.
  static G1Point from_bytes(const CurveCtx* curve, ByteSpan bytes);

  friend bool operator==(const G1Point& a, const G1Point& b) {
    if (a.infinity_ || b.infinity_) return a.infinity_ == b.infinity_;
    return a.x_ == b.x_ && a.y_ == b.y_;
  }

 private:
  G1Point(const CurveCtx* curve, field::Fp x, field::Fp y, bool inf)
      : curve_(curve), x_(x), y_(y), infinity_(inf) {}

  const CurveCtx* curve_ = nullptr;
  field::Fp x_;
  field::Fp y_;
  bool infinity_ = true;
};

/// Fixed-base scalar-multiplication table: an ec::Comb over |q| bits,
/// precomputed once per generator and reused for every multiplication of
/// that point. The table holds 255 affine points and a multiplication
/// costs ceil(|q|/8) doublings plus as many mixed additions — roughly 5x
/// fewer Jacobian operations than the wNAF variable-base path on tre-512
/// scalars.
///
/// Used by the TRE scheme for the server generator G, the server key sG,
/// and the receiver key asG (keygen, encrypt, the FO re-encryption check).
class G1Precomp {
 public:
  /// Throws for an infinity base or one of small order.
  explicit G1Precomp(const G1Point& base);

  size_t covered_bits() const { return comb_.covered_bits(); }

  /// Fixed-base multiply, variable time (PUBLIC scalars).
  G1Point mul(const field::FpInt& k) const;

  /// Fixed-base multiply with a fixed per-column addition schedule
  /// (SECRET scalars); same caveats as G1Point::mul_secret.
  G1Point mul_secret(const field::FpInt& k) const;

 private:
  const CurveCtx* curve_;
  Comb<field::Fp> comb_;
};

/// Checks y^2 == x^3 + 1.
bool on_curve(const CurveCtx* curve, const field::Fp& x, const field::Fp& y);

/// The paper's H1 : {0,1}* -> G_1 (full-domain hash onto the order-q
/// subgroup). Admissible encoding: y from the hash, x = (y^2 - 1)^((2p-1)/3)
/// (the cube-root map, a bijection since p ≡ 2 mod 3), then cofactor
/// clearing; retries with a counter on the rare degenerate output.
G1Point hash_to_g1(const CurveCtx* curve, ByteSpan msg);

/// Σᵢ scalars[i]·points[i] via bucketed Pippenger multi-exponentiation
/// (src/ec/multiexp.h); windows fan out across the persistent work pool
/// (`threads` as in tre::parallel_for: 0 = all, 1 = serial). Sizes must
/// match; returns infinity for an empty batch. `curve` anchors the result
/// when every point is infinity.
G1Point g1_multiexp(const CurveCtx* curve, std::span<const G1Point> points,
                    std::span<const field::FpInt> scalars,
                    unsigned threads = 0);

}  // namespace tre::ec
