#include "bls12/bls12.h"

#include <algorithm>
#include <array>
#include <mutex>
#include <string>

#include "bigint/prime.h"
#include "ec/multiexp.h"
#include "hashing/kdf.h"
#include "obs/metrics.h"

namespace tre::bls12 {

namespace {

// The entire curve family hangs off this one 64-bit parameter.
constexpr std::uint64_t kAbsZ = 0xd201000000010000ull;  // z = -|z|

using Wide = bigint::BigInt<24>;  // scratch width for p², twist orders

// Pairing-engine probes (docs/OBSERVABILITY.md). These live here rather
// than in the generic SchemeProbes because the lines cache belongs to
// the shared Bls12Ctx, not to any one scheme instance.
struct PairProbes {
  obs::CounterProbe lines_hit{"core.bls381.pair.lines.hit"};
  obs::CounterProbe lines_miss{"core.bls381.pair.lines.miss"};
  obs::CounterProbe finalexp{"core.bls381.finalexp"};
  static const PairProbes& get() {
    static const PairProbes p;
    return p;
  }
};

// E: y² = x³ + 4.
constexpr Fq kCurveB = Fq::from_u64(4);

// An F_p2 element from 192 bytes of hash output: each coordinate is the
// wide reduction of 96 of them.
Fq2 fq2_from_wide(ByteSpan h) {
  return Fq2(Fq::from_bytes_wide(h.first(2 * Fq::kBytes)),
             Fq::from_bytes_wide(h.subspan(2 * Fq::kBytes, 2 * Fq::kBytes)));
}

// The point at infinity has one encoding: the 0x00 tag followed by zeros.
bool is_zero_payload(ByteSpan encoded) {
  return std::all_of(encoded.begin() + 1, encoded.end(),
                     [](std::uint8_t b) { return b == 0; });
}

// Integer square root (Newton), with exactness reported separately.
Wide isqrt(const Wide& n) {
  if (n.is_zero()) return Wide{};
  Wide x = bigint::shl(Wide::from_u64(1), (n.bit_length() + 1) / 2);
  for (;;) {
    // x1 = (x + n/x) / 2
    Wide q, rem;
    bigint::divmod(n, x, q, rem);
    Wide x1 = bigint::shr(bigint::add(x, q), 1);
    if (!(x1 < x)) return x;
    x = x1;
  }
}

// Generic Jacobian arithmetic over Fq or Fq2 (ring operators, squared(),
// inverse(), is_zero(), one(); a default T is zero). Valid for a = 0
// short-Weierstrass curves (both E and E').
template <class T>
struct JacT {
  T x, y, z;
  bool inf() const { return z.is_zero(); }
};

template <class T>
JacT<T> jac_dbl(const JacT<T>& p) {
  if (p.inf() || p.y.is_zero()) return JacT<T>{p.x, p.y, T{}};
  T a = p.x.squared();
  T b = p.y.squared();
  T c = b.squared();
  T d = (p.x + b).squared() - a - c;
  d = d + d;
  T e = a + a + a;
  T x3 = e.squared() - (d + d);
  T c8 = c + c;
  c8 = c8 + c8;
  c8 = c8 + c8;
  T y3 = e * (d - x3) - c8;
  T z3 = (p.y * p.z) + (p.y * p.z);
  return JacT<T>{x3, y3, z3};
}

template <class T>
JacT<T> jac_add(const JacT<T>& p, const JacT<T>& q) {
  if (p.inf()) return q;
  if (q.inf()) return p;
  T z1z1 = p.z.squared();
  T z2z2 = q.z.squared();
  T u1 = p.x * z2z2;
  T u2 = q.x * z1z1;
  T s1 = p.y * q.z * z2z2;
  T s2 = q.y * p.z * z1z1;
  if (u1 == u2) {
    if (s1 == s2) return jac_dbl(p);
    return JacT<T>{p.x, p.y, T{}};
  }
  T h = u2 - u1;
  T i = (h + h).squared();
  T j = h * i;
  T r = (s2 - s1);
  r = r + r;
  T v = u1 * i;
  T x3 = r.squared() - j - (v + v);
  T s1j = s1 * j;
  T y3 = r * (v - x3) - (s1j + s1j);
  T z3 = ((p.z + q.z).squared() - z1z1 - z2z2) * h;
  return JacT<T>{x3, y3, z3};
}

template <class T>
JacT<T> jac_neg(const JacT<T>& p) {
  return JacT<T>{p.x, -p.y, p.z};
}

// Mixed addition (madd-2007-bl): affine (x2, y2) into a Jacobian
// accumulator — the Pippenger bucket-drop workhorse (one fewer field
// squaring and three fewer multiplications than the general add).
template <class T>
JacT<T> jac_add_affine(const JacT<T>& p, const T& x2, const T& y2) {
  if (p.inf()) return JacT<T>{x2, y2, T::one()};
  T z1z1 = p.z.squared();
  T u2 = x2 * z1z1;
  T s2 = y2 * p.z * z1z1;
  if (u2 == p.x) {
    if (s2 == p.y) return jac_dbl(p);
    return JacT<T>{p.x, p.y, T{}};
  }
  T h = u2 - p.x;
  T hh = h.squared();
  T i = (hh + hh);
  i = i + i;  // 4h^2
  T j = h * i;
  T r = (s2 - p.y);
  r = r + r;
  T v = p.x * i;
  T x3 = r.squared() - j - (v + v);
  T yj = p.y * j;
  T y3 = r * (v - x3) - (yj + yj);
  T z3 = (p.z + h).squared() - z1z1 - hh;
  return JacT<T>{x3, y3, z3};
}

// Width-4 wNAF double-and-add for public scalars: same group element as
// the plain ladder at ~1/5 the additions.
template <class T, size_t L>
JacT<T> jac_mul(const JacT<T>& base, const bigint::BigInt<L>& k) {
  JacT<T> acc{base.x, base.y, T{}};  // infinity (z = 0)
  if (base.inf() || k.is_zero()) return acc;
  // Odd multiples 1B, 3B, 5B, 7B.
  std::array<JacT<T>, 4> tab;
  tab[0] = base;
  JacT<T> twice = jac_dbl(base);
  for (size_t i = 1; i < 4; ++i) tab[i] = jac_add(tab[i - 1], twice);
  std::int8_t digits[bigint::kWnafMaxDigits<L>];
  size_t n = bigint::wnaf_into(k, 4, digits);
  for (size_t i = n; i-- > 0;) {
    acc = jac_dbl(acc);
    int d = digits[i];
    if (d > 0) {
      acc = jac_add(acc, tab[(d - 1) / 2]);
    } else if (d < 0) {
      acc = jac_add(acc, jac_neg(tab[(-d - 1) / 2]));
    }
  }
  return acc;
}

// Width-4 fixed-window ladder with a constant double/add pattern: every
// window performs exactly four doublings and one addition (a dummy
// accumulator absorbs zero windows), over a window count fixed by
// max(|r|, |k|) so a short secret runs as many windows as a long one.
// Mirrors ec::G1Point::mul_secret — constant-pattern, not constant-time
// (field ops still vary; documented limitation, PERF.md).
template <class T, size_t L>
JacT<T> jac_mul_secret(const JacT<T>& base, const bigint::BigInt<L>& k,
                       size_t order_bits) {
  JacT<T> zero{base.x, base.y, T{}};
  if (base.inf() || k.is_zero()) return zero;
  std::array<JacT<T>, 16> tab;
  tab[0] = zero;
  tab[1] = base;
  for (size_t i = 2; i < 16; ++i) tab[i] = jac_add(tab[i - 1], base);
  size_t windows = (std::max(order_bits, k.bit_length()) + 3) / 4;
  JacT<T> acc = zero;
  JacT<T> dummy = base;
  for (size_t w = windows; w-- > 0;) {
    for (int s = 0; s < 4; ++s) acc = jac_dbl(acc);
    unsigned d = 0;
    for (int s = 3; s >= 0; --s) {
      d = (d << 1) | (k.bit(4 * w + static_cast<size_t>(s)) ? 1u : 0u);
    }
    if (d != 0) {
      acc = jac_add(acc, tab[d]);
    } else {
      dummy = jac_add(dummy, tab[1]);  // keep the addition cadence
    }
  }
  return acc;
}

// [|z|]·P by MSB-first double-and-add over the fixed 64-bit |z|: 63
// doublings and 5 additions.
JacT<Fq> jac_mul_abs_z(const JacT<Fq>& p) {
  JacT<Fq> acc = p;
  for (int i = 62; i >= 0; --i) {
    acc = jac_dbl(acc);
    if ((kAbsZ >> i) & 1) acc = jac_add(acc, p);
  }
  return acc;
}

// Scott's G1 membership test (ePrint 2021/1130 §6, proof corrected in
// 2022/352): an affine on-curve point P ≠ O of E(F_p) lies in the order-r
// subgroup iff φ(P) = −[z²]P, where φ(x, y) = (βx, y) for the cube root
// of unity β that acts on G1 as −z² (docs/PERF.md "BLS12-381 point
// ingestion"). Two |z| ladders give [z²]P = [|z|]([|z|]P) in Jacobian
// coordinates; the comparison with (βx, −y) is projective, so nothing
// is inverted.
bool phi_is_minus_z2(const G1Point381& a, const Fq& beta) {
  const JacT<Fq> z2p = jac_mul_abs_z(jac_mul_abs_z(JacT<Fq>{a.x, a.y, Fq::one()}));
  if (z2p.inf()) return false;
  // (X/Z², Y/Z³) == (βx, −y)  ⇔  X == βx·Z² and Y == −y·Z³.
  const Fq zz = z2p.z.squared();
  return z2p.x == beta * a.x * zz && z2p.y == -(a.y * zz * z2p.z);
}

G1Point381 jac_to_g1(const JacT<Fq>& j) {
  if (j.inf()) return G1Point381{};
  Fq zi = j.z.inverse();
  Fq zi2 = zi.squared();
  return G1Point381{j.x * zi2, j.y * zi2 * zi, false};
}

G2Point381 jac_to_g2(const JacT<Fq2>& j) {
  if (j.inf()) return G2Point381{};
  Fq2 zi = j.z.inverse();
  Fq2 zi2 = zi.squared();
  return G2Point381{j.x * zi2, j.y * zi2 * zi, false};
}

}  // namespace

// ---------------------------------------------------------------------------
// Context construction: derive everything from z, validate everything.

std::shared_ptr<const Bls12Ctx> Bls12Ctx::get() {
  static std::mutex mu;
  static std::shared_ptr<const Bls12Ctx> cached;
  std::scoped_lock lock(mu);
  if (!cached) cached = std::shared_ptr<const Bls12Ctx>(new Bls12Ctx());
  return cached;
}

Bls12Ctx::Bls12Ctx() : abs_z_(kAbsZ) {
  hashing::HmacDrbg validation_rng(to_bytes("bls12-381 validation"));

  // r = z⁴ - z² + 1 (even powers: sign of z irrelevant).
  FpInt z = FpInt::from_u64(abs_z_);
  FpInt z2 = bigint::mul_wide(z, z).resized<field::kMaxFieldLimbs>();
  FpInt z4 = bigint::mul_wide(z2, z2).resized<field::kMaxFieldLimbs>();
  FpInt r = bigint::add(bigint::sub(z4, z2), FpInt::from_u64(1));

  // p = ((z-1)²·r)/3 + z, with z negative: (z-1)² = (|z|+1)².
  FpInt z_plus_1 = bigint::add(z, FpInt::from_u64(1));
  FpInt zp1_sq = bigint::mul_wide(z_plus_1, z_plus_1).resized<field::kMaxFieldLimbs>();
  auto prod = bigint::mul_wide(zp1_sq, r);  // 24 limbs
  Wide quo, rem;
  bigint::divmod(prod, Wide::from_u64(3), quo, rem);
  require(rem.is_zero(), "Bls12Ctx: (z-1)²·r not divisible by 3");
  FpInt p = bigint::sub(quo.resized<field::kMaxFieldLimbs>(), z);

  require(p.bit_length() == 381, "Bls12Ctx: p has wrong size");
  require(r.bit_length() == 255, "Bls12Ctx: r has wrong size");
  require(bigint::is_probable_prime(p, validation_rng, 20), "Bls12Ctx: p not prime");
  require(bigint::is_probable_prime(r, validation_rng, 20), "Bls12Ctx: r not prime");

  // The base-field arithmetic runs on Fq, whose modulus is a constant:
  // it must be the p derived here.
  require(p == Fq::kModulus.resized<field::kMaxFieldLimbs>(),
          "Bls12Ctx: Fq's modulus is not the p derived from z");
  fp_ = std::make_shared<const FpCtx>(p);
  fr_ = std::make_shared<const FpCtx>(r);
  require(fp_->p_mod_4_is_3, "Bls12Ctx: p != 3 (mod 4)");
  tower_ = std::make_unique<TowerCtx>();

  // G1 cofactor h1 = (z-1)²/3; #E(F_p) = p + |z| = h1·r. The same
  // integer seeds the final-exponentiation chain (c3 below).
  FpInt h1, h1_rem;
  bigint::divmod(zp1_sq, FpInt::from_u64(3), h1, h1_rem);
  require(h1_rem.is_zero(), "Bls12Ctx: (z-1)² not divisible by 3");
  g1_cofactor_ = h1;
  FpInt n1 = bigint::add(p, z);  // p + 1 - t, t = z + 1
  require(bigint::mul_wide(h1, r).resized<field::kMaxFieldLimbs>() == n1,
          "Bls12Ctx: G1 order identity failed");

  // Twist constant b' = 4(1+u), and the doubling-step constants.
  twist_b_ = tower_->xi.scale(Fq::from_u64(4));
  twist_b3_ = twist_b_ + twist_b_ + twist_b_;
  half_ = Fq::from_u64(2).inverse();

  // Untwist constants 1/w², 1/w³ (w⁶ = ξ so w^{-1} = w⁵/ξ).
  {
    Fp12 w = fp12_zero(*tower_);
    w.c1.c0 = Fq2::one();  // w
    Fp12 w_inv = fp12_inv(*tower_, w);
    w2_inv_ = fp12_mul(*tower_, w_inv, w_inv);
    w3_inv_ = fp12_mul(*tower_, w2_inv_, w_inv);
  }

  // G2 cofactor: find the twist order among the six CM candidates.
  {
    // t = z + 1 (negative): t² = (|z|-1)². Frobenius over F_p2 has trace
    // t2 = t² - 2p (< 0 here) and CM data t2² - 4p² = -3·f2².
    FpInt abs_t = bigint::sub(z, FpInt::from_u64(1));
    Wide t_sq = bigint::mul_wide(abs_t, abs_t).resized<Wide::kLimbs>();
    Wide p_wide = p.resized<Wide::kLimbs>();
    Wide p2 = bigint::mul_wide(p, p).resized<Wide::kLimbs>();
    // |t2| = 2p - t² (t2 = t² - 2p < 0).
    Wide abs_t2 = bigint::sub(bigint::shl(p_wide, 1), t_sq);
    // f2 = sqrt((4p² - t2²)/3), exact by CM discriminant -3.
    Wide f_sq_num = bigint::sub(
        bigint::shl(p2, 2),
        bigint::mul_wide(abs_t2.resized<12>(), abs_t2.resized<12>()).resized<Wide::kLimbs>());
    Wide f_sq, f_rem;
    bigint::divmod(f_sq_num, Wide::from_u64(3), f_sq, f_rem);
    require(f_rem.is_zero(), "Bls12Ctx: CM identity failed");
    Wide f2 = isqrt(f_sq);
    require(bigint::mul_wide(f2.resized<12>(), f2.resized<12>()).resized<Wide::kLimbs>() ==
                f_sq,
            "Bls12Ctx: CM square root not exact");
    Wide three_f = bigint::add(bigint::shl(f2, 1), f2);

    Wide p2_plus_1 = bigint::add(p2, Wide::from_u64(1));
    std::vector<Wide> candidates;
    // Sextic-twist orders: n = p²+1-e for e in {±t2, ±(t2+3f2)/2,
    // ±(t2-3f2)/2}; signs resolved via magnitudes (t2 < 0 and
    // |t2| ≈ 2p dominates 3f2 ≈ 3·2^255).
    auto push = [&](const Wide& magnitude, bool e_negative) {
      candidates.push_back(e_negative ? bigint::add(p2_plus_1, magnitude)
                                      : bigint::sub(p2_plus_1, magnitude));
    };
    push(abs_t2, true);
    push(abs_t2, false);
    Wide m1 = bigint::shr(bigint::sub(abs_t2, three_f), 1);  // |(t2+3f2)/2|
    Wide m2 = bigint::shr(bigint::add(abs_t2, three_f), 1);  // |(t2-3f2)/2|
    push(m1, true);
    push(m1, false);
    push(m2, true);
    push(m2, false);

    // Sample a twist point and find the candidate order that (a) is
    // divisible by r and (b) annihilates the point.
    G2Point381 sample = g2_infinity();
    for (std::uint32_t ctr = 0; sample.inf; ++ctr) {
      Bytes h = hashing::oracle_bytes("BLS12-G2-sample", be32(ctr), 4 * Fq::kBytes);
      Fq2 x = fq2_from_wide(h);
      Fq2 rhs = x.squared() * x + twist_b_;
      auto y = rhs.sqrt();
      if (!y) continue;
      sample = G2Point381{x, *y, false};
    }
    bool found = false;
    for (const Wide& n : candidates) {
      Wide q2, r2;
      bigint::divmod(n, r.resized<Wide::kLimbs>(), q2, r2);
      if (!r2.is_zero()) continue;
      // n must annihilate the sampled point.
      JacT<Fq2> jac{sample.x, sample.y, Fq2::one()};
      if (!jac_mul(jac, n).inf()) continue;
      require(q2.bit_length() <= 64 * field::kMaxFieldLimbs,
              "Bls12Ctx: G2 cofactor too large");
      g2_cofactor_ = q2.resized<field::kMaxFieldLimbs>();
      found = true;
      break;
    }
    require(found, "Bls12Ctx: no twist order candidate matched");
  }

  // Hard exponent (p⁴ - p² + 1)/r for the final exponentiation.
  {
    Wide p2 = bigint::mul_wide(p, p).resized<Wide::kLimbs>();
    Wide p4 = bigint::mul_wide(p2.resized<12>(), p2.resized<12>()).resized<Wide::kLimbs>();
    Wide hard = bigint::add(bigint::sub(p4, p2), Wide::from_u64(1));
    Wide quo2, rem2;
    bigint::divmod(hard, r.resized<Wide::kLimbs>(), quo2, rem2);
    require(rem2.is_zero(), "Bls12Ctx: r does not divide p⁴ - p² + 1");
    hard_exponent_ = quo2;
  }

  // Generators.
  g1_gen_ = hash_to_g1(to_bytes("BLS12-381 G1 generator / TRE-v1"));

  // G1 membership constant. φ(x, y) = (βx, y), β a primitive cube root of
  // unity in F_p, is an endomorphism of E; on G1 it acts as one of the two
  // roots of λ² + λ + 1 ≡ 0 (mod r), which are −z² and z² − 1 because
  // r = z⁴ − z² + 1. The two cube roots β and β² give the two actions, so
  // exactly one of them must map the generator to −[z²]G.
  {
    FpInt third, third_rem;
    bigint::divmod(bigint::sub(p, FpInt::from_u64(1)), FpInt::from_u64(3), third, third_rem);
    require(third_rem.is_zero(), "Bls12Ctx: p != 1 (mod 3)");
    const Fq one = Fq::one();
    Fq cube_root = one;
    for (std::uint64_t g = 2; cube_root == one; ++g) {
      cube_root = Fq::from_u64(g).pow(third);
    }
    int matches = 0;
    for (const Fq& beta : {cube_root, cube_root.squared()}) {
      if (!phi_is_minus_z2(g1_gen_, beta)) continue;
      beta_ = beta;
      ++matches;
    }
    require(matches == 1, "Bls12Ctx: no unique cube root of unity acts as -z^2 on G1");
  }
  {
    for (std::uint32_t ctr = 0;; ++ctr) {
      Bytes h = hashing::oracle_bytes("BLS12-G2-gen", be32(ctr), 4 * Fq::kBytes);
      Fq2 x = fq2_from_wide(h);
      Fq2 rhs = x.squared() * x + twist_b_;
      auto y = rhs.sqrt();
      if (!y) continue;
      G2Point381 cleared = g2_mul(G2Point381{x, *y, false}, g2_cofactor_);
      if (cleared.inf) continue;
      g2_gen_ = cleared;
      break;
    }
    require(g2_in_subgroup(g2_gen_), "Bls12Ctx: G2 generator escaped the subgroup");
    // Frobenius eigenvalue check: the untwisted generator satisfies
    // π(Q) = [p]Q — the defining property of G2 the ate pairing needs.
    PointFp12 qu = untwist(g2_gen_);
    PointFp12 frob_q = fp12_point_frobenius(qu);
    // [p]Q computed on the twist side (cheap): p ≡ p mod r on order-r points.
    FpInt p_mod_r = bigint::mod(p, r);
    G2Point381 pq = g2_mul(g2_gen_, p_mod_r);
    PointFp12 pq_untwisted = untwist(pq);
    require(!frob_q.inf && !pq_untwisted.inf &&
                fp12_eq(frob_q.x, pq_untwisted.x) && fp12_eq(frob_q.y, pq_untwisted.y),
            "Bls12Ctx: G2 generator fails the Frobenius eigenvalue check");
  }
}

// ---------------------------------------------------------------------------
// G1.

G1Point381 Bls12Ctx::g1_infinity() const { return G1Point381{}; }

bool Bls12Ctx::g1_on_curve(const G1Point381& a) const {
  if (a.inf) return true;
  return a.y.squared() == a.x.squared() * a.x + kCurveB;
}

bool Bls12Ctx::g1_eq(const G1Point381& a, const G1Point381& b) const {
  if (a.inf || b.inf) return a.inf == b.inf;
  return a.x == b.x && a.y == b.y;
}

G1Point381 Bls12Ctx::g1_neg(const G1Point381& a) const {
  if (a.inf) return a;
  return G1Point381{a.x, -a.y, false};
}

G1Point381 Bls12Ctx::g1_add(const G1Point381& a, const G1Point381& b) const {
  if (a.inf) return b;
  if (b.inf) return a;
  JacT<Fq> ja{a.x, a.y, Fq::one()};
  JacT<Fq> jb{b.x, b.y, Fq::one()};
  return jac_to_g1(jac_add(ja, jb));
}

G1Point381 Bls12Ctx::g1_mul(const G1Point381& a, const Scalar& k) const {
  if (a.inf || k.is_zero()) return g1_infinity();
  JacT<Fq> ja{a.x, a.y, Fq::one()};
  return jac_to_g1(jac_mul(ja, k));
}

G1Point381 Bls12Ctx::g1_mul_secret(const G1Point381& a, const Scalar& k) const {
  if (a.inf || k.is_zero()) return g1_infinity();
  JacT<Fq> ja{a.x, a.y, Fq::one()};
  return jac_to_g1(jac_mul_secret(ja, k, r().bit_length()));
}

namespace {

// Adapter feeding the shared Pippenger engine (ec/multiexp.h) with the
// private JacT<Fq> kernel: mixed adds for bucket drops, full adds for
// the running-sum fold.
struct G1MultiexpOps {
  using Acc = JacT<Fq>;

  std::span<const G1Point381> points;

  Acc zero() const { return {Fq::one(), Fq::one(), Fq{}}; }
  void add_point(Acc& acc, size_t i) const {
    const G1Point381& p = points[i];
    if (p.inf) return;
    acc = jac_add_affine(acc, p.x, p.y);
  }
  void add(Acc& acc, const Acc& other) const { acc = jac_add(acc, other); }
  void dbl(Acc& acc) const { acc = jac_dbl(acc); }
  void sub_point(Acc& acc, size_t i) const {
    const G1Point381& p = points[i];
    if (p.inf) return;
    acc = jac_add_affine(acc, p.x, -p.y);
  }
};

// The same adapter over the twist: JacT is generic in its field, so the
// G2 multi-exp reuses every Jacobian kernel verbatim.
struct G2MultiexpOps {
  using Acc = JacT<Fq2>;

  std::span<const G2Point381> points;

  Acc zero() const { return {Fq2::one(), Fq2::one(), Fq2{}}; }
  void add_point(Acc& acc, size_t i) const {
    const G2Point381& p = points[i];
    if (p.inf) return;
    acc = jac_add_affine(acc, p.x, p.y);
  }
  void add(Acc& acc, const Acc& other) const { acc = jac_add(acc, other); }
  void dbl(Acc& acc) const { acc = jac_dbl(acc); }
  void sub_point(Acc& acc, size_t i) const {
    const G2Point381& p = points[i];
    if (p.inf) return;
    acc = jac_add_affine(acc, p.x, -p.y);
  }
};

}  // namespace

G1Point381 Bls12Ctx::g1_multiexp(std::span<const G1Point381> points,
                                 std::span<const Scalar> scalars,
                                 unsigned threads) const {
  require(points.size() == scalars.size(), "g1_multiexp: size mismatch");
  G1MultiexpOps ops{points};
  return jac_to_g1(ec::multiexp_auto(ops, scalars, threads));
}

G1Point381 Bls12Ctx::g1_multiexp_unsigned(std::span<const G1Point381> points,
                                          std::span<const Scalar> scalars,
                                          unsigned threads) const {
  require(points.size() == scalars.size(), "g1_multiexp: size mismatch");
  G1MultiexpOps ops{points};
  return jac_to_g1(ec::multiexp_pippenger(ops, scalars, threads));
}

G2Point381 Bls12Ctx::g2_multiexp(std::span<const G2Point381> points,
                                 std::span<const Scalar> scalars,
                                 unsigned threads) const {
  require(points.size() == scalars.size(), "g2_multiexp: size mismatch");
  G2MultiexpOps ops{points};
  return jac_to_g2(ec::multiexp_auto(ops, scalars, threads));
}

bool Bls12Ctx::g1_in_subgroup(const G1Point381& a) const {
  if (a.inf) return true;
  if (!g1_on_curve(a)) return false;
  return phi_is_minus_z2(a, beta_);
}

G1Point381 Bls12Ctx::hash_to_g1(ByteSpan msg) const {
  for (std::uint32_t ctr = 0;; ++ctr) {
    Bytes input = concat({msg, be32(ctr)});
    Bytes h = hashing::oracle_bytes("BLS12-H1", input, 2 * Fq::kBytes);
    Fq x = Fq::from_bytes_wide(h);
    Fq rhs = x.squared() * x + kCurveB;
    auto y = rhs.sqrt();
    if (!y) continue;
    G1Point381 cleared = g1_mul(G1Point381{x, *y, false}, g1_cofactor_);
    if (!cleared.inf) return cleared;
  }
}

Bytes Bls12Ctx::g1_to_bytes(const G1Point381& a) const {
  Bytes out(1 + Fq::kBytes, 0);
  if (a.inf) return out;
  out[0] = static_cast<std::uint8_t>(0x02 | (a.y.to_int().w[0] & 1));
  Bytes xb = a.x.to_bytes();
  std::copy(xb.begin(), xb.end(), out.begin() + 1);
  return out;
}

G1Point381 Bls12Ctx::g1_from_bytes(ByteSpan bytes) const {
  require(bytes.size() == 1 + Fq::kBytes, "g1_from_bytes: wrong length");
  if (bytes[0] == 0x00) {
    require(is_zero_payload(bytes), "g1_from_bytes: malformed infinity");
    return g1_infinity();
  }
  require(bytes[0] == 0x02 || bytes[0] == 0x03, "g1_from_bytes: bad tag");
  Fq x = Fq::from_bytes(bytes.subspan(1));
  auto y = (x.squared() * x + kCurveB).sqrt();
  require(y.has_value(), "g1_from_bytes: not on curve");
  if ((y->to_int().w[0] & 1) != (bytes[0] & 1)) *y = -*y;
  G1Point381 p{x, *y, false};
  require(g1_in_subgroup(p), "g1_from_bytes: outside the order-r subgroup");
  return p;
}

// ---------------------------------------------------------------------------
// G2 (twist coordinates).

G2Point381 Bls12Ctx::g2_infinity() const { return G2Point381{}; }

bool Bls12Ctx::g2_on_curve(const G2Point381& a) const {
  if (a.inf) return true;
  return a.y.squared() == a.x.squared() * a.x + twist_b_;
}

bool Bls12Ctx::g2_eq(const G2Point381& a, const G2Point381& b) const {
  if (a.inf || b.inf) return a.inf == b.inf;
  return a.x == b.x && a.y == b.y;
}

G2Point381 Bls12Ctx::g2_neg(const G2Point381& a) const {
  if (a.inf) return a;
  return G2Point381{a.x, -a.y, false};
}

G2Point381 Bls12Ctx::g2_add(const G2Point381& a, const G2Point381& b) const {
  if (a.inf) return b;
  if (b.inf) return a;
  JacT<Fq2> ja{a.x, a.y, Fq2::one()};
  JacT<Fq2> jb{b.x, b.y, Fq2::one()};
  return jac_to_g2(jac_add(ja, jb));
}

G2Point381 Bls12Ctx::g2_mul(const G2Point381& a, const Scalar& k) const {
  if (a.inf || k.is_zero()) return g2_infinity();
  JacT<Fq2> ja{a.x, a.y, Fq2::one()};
  return jac_to_g2(jac_mul(ja, k));
}

G2Point381 Bls12Ctx::g2_mul_secret(const G2Point381& a, const Scalar& k) const {
  if (a.inf || k.is_zero()) return g2_infinity();
  JacT<Fq2> ja{a.x, a.y, Fq2::one()};
  return jac_to_g2(jac_mul_secret(ja, k, r().bit_length()));
}

bool Bls12Ctx::g2_in_subgroup(const G2Point381& a) const {
  if (!g2_on_curve(a)) return false;
  return g2_mul(a, r()).inf;
}

Bytes Bls12Ctx::g2_to_bytes(const G2Point381& a) const {
  Bytes out(1 + 2 * Fq::kBytes, 0);
  if (a.inf) return out;
  std::uint64_t parity =
      a.y.re().is_zero() ? (a.y.im().to_int().w[0] & 1) : (a.y.re().to_int().w[0] & 1);
  out[0] = static_cast<std::uint8_t>(0x02 | parity);
  Bytes xb = a.x.to_bytes();
  std::copy(xb.begin(), xb.end(), out.begin() + 1);
  return out;
}

G2Point381 Bls12Ctx::g2_from_bytes(ByteSpan bytes) const {
  require(bytes.size() == 1 + 2 * Fq::kBytes, "g2_from_bytes: wrong length");
  if (bytes[0] == 0x00) {
    require(is_zero_payload(bytes), "g2_from_bytes: malformed infinity");
    return g2_infinity();
  }
  require(bytes[0] == 0x02 || bytes[0] == 0x03, "g2_from_bytes: bad tag");
  Fq2 x = Fq2::from_bytes(bytes.subspan(1));
  auto y = (x.squared() * x + twist_b_).sqrt();
  require(y.has_value(), "g2_from_bytes: not on curve");
  std::uint64_t parity =
      y->re().is_zero() ? (y->im().to_int().w[0] & 1) : (y->re().to_int().w[0] & 1);
  if (parity != (bytes[0] & 1u)) *y = -*y;
  G2Point381 p{x, *y, false};
  require(g2_in_subgroup(p), "g2_from_bytes: outside the order-r subgroup");
  return p;
}

// ---------------------------------------------------------------------------
// G2 fixed-base comb.

G2Comb::G2Comb(std::shared_ptr<const Bls12Ctx> ctx, const G2Point381& base)
    : ctx_(std::move(ctx)), base_(base) {
  if (base_.inf) {
    degenerate_ = true;
    return;
  }
  // 256 covers every scalar below r (255 bits) with an even split.
  constexpr size_t kBits = 256;
  cols_ = kBits / kTeeth;  // 32
  // Tooth bases B_t = 2^(t·cols)·base, then all 2^kTeeth − 1 subset sums.
  std::array<JacT<Fq2>, kTeeth> tooth;
  JacT<Fq2> cur{base_.x, base_.y, Fq2::one()};
  for (size_t t = 0; t < kTeeth; ++t) {
    tooth[t] = cur;
    if (t + 1 < kTeeth) {
      for (size_t d = 0; d < cols_; ++d) cur = jac_dbl(cur);
    }
  }
  const size_t n = (size_t{1} << kTeeth) - 1;
  std::vector<JacT<Fq2>> jac(n + 1);
  for (size_t m = 1; m <= n; ++m) {
    size_t low = m & (~m + 1);  // lowest set bit
    size_t t = 0;
    while ((low >> t) != 1) ++t;
    size_t rest = m & (m - 1);
    jac[m] = rest != 0 ? jac_add(jac[rest], tooth[t]) : tooth[t];
  }
  // Batch-normalize the table to affine with one field inversion
  // (Montgomery's trick over the non-infinity z coordinates).
  std::vector<Fq2> zs;
  zs.reserve(n);
  for (size_t m = 1; m <= n; ++m) {
    if (!jac[m].inf()) zs.push_back(jac[m].z);
  }
  std::vector<Fq2> prefix(zs.size(), Fq2::one());
  Fq2 acc = Fq2::one();
  for (size_t i = 0; i < zs.size(); ++i) {
    prefix[i] = acc;
    acc = acc * zs[i];
  }
  Fq2 inv = acc.inverse();
  std::vector<Fq2> zinv(zs.size(), Fq2::one());
  for (size_t i = zs.size(); i-- > 0;) {
    zinv[i] = inv * prefix[i];
    inv = inv * zs[i];
  }
  table_.resize(n, ctx_->g2_infinity());
  size_t zi = 0;
  for (size_t m = 1; m <= n; ++m) {
    if (jac[m].inf()) continue;  // unreachable for an order-r base; kept safe
    Fq2 i1 = zinv[zi++];
    Fq2 i2 = i1.squared();
    table_[m - 1] = G2Point381{jac[m].x * i2, jac[m].y * i2 * i1, false};
  }
}

G2Point381 G2Comb::mul(const Scalar& k) const {
  if (degenerate_ || k.is_zero()) return ctx_->g2_infinity();
  if (k.bit_length() > cols_ * kTeeth) return ctx_->g2_mul(base_, k);
  JacT<Fq2> acc{};
  for (size_t col = cols_; col-- > 0;) {
    acc = jac_dbl(acc);
    unsigned m = 0;
    for (size_t t = 0; t < kTeeth; ++t) {
      if (k.bit(t * cols_ + col)) m |= 1u << t;
    }
    if (m != 0) {
      const G2Point381& e = table_[m - 1];
      acc = jac_add(acc, JacT<Fq2>{e.x, e.y, Fq2::one()});
    }
  }
  return jac_to_g2(acc);
}

G2Point381 G2Comb::mul_secret(const Scalar& k) const {
  if (degenerate_ || k.is_zero()) return ctx_->g2_infinity();
  if (k.bit_length() > cols_ * kTeeth) return ctx_->g2_mul_secret(base_, k);
  JacT<Fq2> acc{};
  JacT<Fq2> dummy{base_.x, base_.y, Fq2::one()};
  for (size_t col = cols_; col-- > 0;) {
    acc = jac_dbl(acc);
    unsigned m = 0;
    for (size_t t = 0; t < kTeeth; ++t) {
      if (k.bit(t * cols_ + col)) m |= 1u << t;
    }
    const G2Point381& e = table_[m != 0 ? m - 1 : 0];
    JacT<Fq2> ej{e.x, e.y, Fq2::one()};
    if (m != 0) {
      acc = jac_add(acc, ej);
    } else {
      dummy = jac_add(dummy, ej);  // keep the addition cadence
    }
  }
  return jac_to_g2(acc);
}

// ---------------------------------------------------------------------------
// Pairing — fast engine.
//
// Optimal ate: f_{z,Q}(P) over 63 iterations of |z| (top bit implicit),
// point arithmetic in homogeneous projective coordinates ON THE TWIST
// (all F_p2, no inversions), each line an M-twist-sparse F_p12 element
// c0 + c1·v + c4·vw folded in via fp12_mul_by_014. The per-line F_p2*
// and F_p4* scalings (and the implicit w³ twist factor) die in the final
// exponentiation, so values match the reference affine loop exactly
// after it.

std::shared_ptr<const G2Prepared> Bls12Ctx::prepare_g2(const G2Point381& q) const {
  auto out = std::make_shared<G2Prepared>();
  if (q.inf) {
    out->inf = true;
    return out;
  }
  out->coeffs.reserve(70);
  // R = (X : Y : Z), homogeneous; starts at (x_Q : y_Q : 1).
  Fq2 rx = q.x, ry = q.y, rz = Fq2::one();
  auto dbl_step = [&]() {
    // Costello–Lange–Naehrig doubling with line; b' folded via 3b'.
    Fq2 a = (rx * ry).scale(half_);
    Fq2 b = ry.squared();
    Fq2 c = rz.squared();
    Fq2 e = twist_b3_ * c;  // 3b'·Z²
    Fq2 f = e + e + e;
    Fq2 g = (b + f).scale(half_);
    Fq2 h = (ry + rz).squared() - (b + c);
    Fq2 i = e - b;
    Fq2 j = rx.squared();
    Fq2 e2 = e.squared();
    rx = a * (b - f);
    ry = g.squared() - (e2 + e2 + e2);
    rz = b * h;
    out->coeffs.push_back(G2Prepared::Coeff{i, j + j + j, -h});
  };
  auto add_step = [&]() {
    Fq2 theta = ry - q.y * rz;
    Fq2 lambda = rx - q.x * rz;
    Fq2 c = theta.squared();
    Fq2 d = lambda.squared();
    Fq2 e = lambda * d;
    Fq2 f = rz * c;
    Fq2 g = rx * d;
    Fq2 h = e + f - (g + g);
    rx = lambda * h;
    ry = theta * (g - h) - e * ry;
    rz = rz * e;
    Fq2 j = theta * q.x - lambda * q.y;
    out->coeffs.push_back(G2Prepared::Coeff{j, -theta, lambda});
  };
  FpInt loop = FpInt::from_u64(abs_z_);
  for (size_t i = loop.bit_length() - 1; i-- > 0;) {
    dbl_step();
    if (loop.bit(i)) add_step();
  }
  return out;
}

std::shared_ptr<const G2Prepared> Bls12Ctx::prepare_g2_cached(
    const G2Point381& q) const {
  Bytes kb = g2_to_bytes(q);
  std::string key(reinterpret_cast<const char*>(kb.data()), kb.size());
  if (auto hit = g2_lines_.find(key)) {
    PairProbes::get().lines_hit.add();
    return *hit;
  }
  PairProbes::get().lines_miss.add();
  std::shared_ptr<const G2Prepared> prep = prepare_g2(q);
  g2_lines_.insert(key, prep);
  return prep;
}

Fp12 Bls12Ctx::miller_loop_multi(
    std::span<const std::pair<G1Point381, const G2Prepared*>> pairs) const {
  const TowerCtx& t = *tower_;
  Fp12 f = fp12_one(t);
  size_t idx = 0;
  auto fold = [&](const std::pair<G1Point381, const G2Prepared*>& pq) {
    const G2Prepared::Coeff& c = pq.second->coeffs[idx];
    f = fp12_mul_by_014(t, f, c.a, c.b.scale(pq.first.x), c.c.scale(pq.first.y));
  };
  FpInt loop = FpInt::from_u64(abs_z_);
  for (size_t i = loop.bit_length() - 1; i-- > 0;) {
    f = fp12_sqr(t, f);
    for (const auto& pq : pairs) fold(pq);
    ++idx;
    if (loop.bit(i)) {
      for (const auto& pq : pairs) fold(pq);
      ++idx;
    }
  }
  // z < 0: conjugation inverts modulo the final-exponentiation kernel.
  return fp12_conjugate(f);
}

Fp12 Bls12Ctx::miller_loop(const G1Point381& p, const G2Prepared& q) const {
  if (p.inf || q.inf) return fp12_one(*tower_);
  std::pair<G1Point381, const G2Prepared*> one_pair[1] = {{p, &q}};
  return miller_loop_multi(one_pair);
}

Fp12 Bls12Ctx::hard_part(const Fp12& m) const {
  const TowerCtx& t = *tower_;
  // λ = (p⁴−p²+1)/r decomposes EXACTLY (validated against hard_exponent_
  // by the r | p⁴−p²+1 construction check plus the vector tests) as
  //   λ = c0 + c1·p + c2·p² + c3·p³
  //   c3 = (z−1)²/3 (= the G1 cofactor), c2 = z·c3,
  //   c1 = z·c2 − c3, c0 = z·c1 + 1.
  // All arithmetic stays in the cyclotomic subgroup: squarings are
  // Granger–Scott, inversions are conjugations, z < 0 handled by a final
  // conjugate in exp_z.
  auto exp_z = [&](const Fp12& g) {
    return fp12_conjugate(fp12_cyclotomic_pow(t, g, FpInt::from_u64(abs_z_)));
  };
  Fp12 y3 = fp12_cyclotomic_pow(t, m, g1_cofactor_);          // m^c3
  Fp12 y2 = exp_z(y3);                                        // m^c2
  Fp12 y1 = fp12_mul(t, exp_z(y2), fp12_conjugate(y3));       // m^c1
  Fp12 y0 = fp12_mul(t, exp_z(y1), m);                        // m^c0
  Fp12 acc = fp12_mul(t, y0, fp12_frobenius(t, y1));
  acc = fp12_mul(t, acc, fp12_frobenius(t, fp12_frobenius(t, y2)));
  return fp12_mul(
      t, acc, fp12_frobenius(t, fp12_frobenius(t, fp12_frobenius(t, y3))));
}

Fp12 Bls12Ctx::final_exponentiation(const Fp12& f) const {
  PairProbes::get().finalexp.add();
  const TowerCtx& t = *tower_;
  // Easy part f^((p⁶−1)(p²+1)): one inversion, conjugation is f^(p⁶).
  Fp12 f1 = fp12_mul(t, fp12_conjugate(f), fp12_inv(t, f));
  Fp12 f2 = fp12_mul(t, fp12_frobenius(t, fp12_frobenius(t, f1)), f1);
  return hard_part(f2);
}

Gt381 Bls12Ctx::pair(const G1Point381& p, const G2Point381& q) const {
  if (p.inf || q.inf) return fp12_one(*tower_);
  return final_exponentiation(miller_loop(p, *prepare_g2(q)));
}

Gt381 Bls12Ctx::pair_cached(const G1Point381& p, const G2Point381& q) const {
  if (p.inf || q.inf) return fp12_one(*tower_);
  return final_exponentiation(miller_loop(p, *prepare_g2_cached(q)));
}

bool Bls12Ctx::pairings_equal(const G1Point381& a1, const G2Point381& a2,
                              const G1Point381& b1, const G2Point381& b2) const {
  if (a1.inf || a2.inf || b1.inf || b2.inf) {
    return fp12_eq(pair(a1, a2), pair(b1, b2));
  }
  // ê(a1,a2)·ê(−b1,b2): one shared-squaring loop, one final
  // exponentiation. Verification only sees long-lived G_2 keys, so both
  // line sets come from the cache.
  auto pa = prepare_g2_cached(a2);
  auto pb = prepare_g2_cached(b2);
  std::pair<G1Point381, const G2Prepared*> pairs[2] = {{a1, pa.get()},
                                                       {g1_neg(b1), pb.get()}};
  return fp12_is_one(*tower_, final_exponentiation(miller_loop_multi(pairs)));
}

// ---------------------------------------------------------------------------
// Pairing — reference engine (the seed implementation, kept as oracle).

Bls12Ctx::PointFp12 Bls12Ctx::untwist(const G2Point381& q) const {
  if (q.inf) return PointFp12{fp12_zero(*tower_), fp12_zero(*tower_), true};
  Fp12 x = fp12_mul(*tower_, fp12_from_fp2(*tower_, q.x), w2_inv_);
  Fp12 y = fp12_mul(*tower_, fp12_from_fp2(*tower_, q.y), w3_inv_);
  return PointFp12{x, y, false};
}

Bls12Ctx::PointFp12 Bls12Ctx::fp12_point_frobenius(const PointFp12& a) const {
  if (a.inf) return a;
  return PointFp12{fp12_frobenius(*tower_, a.x), fp12_frobenius(*tower_, a.y), false};
}

Fp12 Bls12Ctx::miller_ate_reference(
    std::span<const std::pair<G1Point381, G2Point381>> pairs) const {
  const TowerCtx& t = *tower_;
  // Affine loop over the untwisted points in F_p12 — the seed engine,
  // with one change: the N loop instances run in lockstep, so the N
  // independent slope denominators of each step are inverted with ONE
  // fp12_inv via Montgomery's trick (for N = 1 this degenerates to
  // exactly the original per-step inversion).
  struct Lane {
    Fp12 xp, yp, qx, qy, tx, ty;
  };
  std::vector<Lane> lanes;
  lanes.reserve(pairs.size());
  for (const auto& [p, q] : pairs) {
    PointFp12 quntw = untwist(q);
    lanes.push_back(Lane{fp12_from_fp(t, p.x), fp12_from_fp(t, p.y), quntw.x,
                         quntw.y, quntw.x, quntw.y});
  }
  // vals <- 1/vals with a single fp12_inv.
  auto batch_inv = [&](std::vector<Fp12>& vals) {
    std::vector<Fp12> prefix(vals.size(), fp12_one(t));
    Fp12 acc = fp12_one(t);
    for (size_t i = 0; i < vals.size(); ++i) {
      prefix[i] = acc;
      acc = fp12_mul(t, acc, vals[i]);
    }
    Fp12 inv = fp12_inv(t, acc);
    for (size_t i = vals.size(); i-- > 0;) {
      Fp12 vi = fp12_mul(t, inv, prefix[i]);
      inv = fp12_mul(t, inv, vals[i]);
      vals[i] = vi;
    }
  };

  Fp12 f_num = fp12_one(t);
  Fp12 f_den = fp12_one(t);
  std::vector<Fp12> denoms(lanes.size(), fp12_one(t));

  FpInt loop = FpInt::from_u64(abs_z_);
  for (size_t i = loop.bit_length() - 1; i-- > 0;) {
    f_num = fp12_sqr(t, f_num);
    f_den = fp12_sqr(t, f_den);

    // Tangent at T, evaluated at P; then T = 2T.
    for (size_t k = 0; k < lanes.size(); ++k) {
      denoms[k] = fp12_add(lanes[k].ty, lanes[k].ty);
    }
    batch_inv(denoms);
    for (size_t k = 0; k < lanes.size(); ++k) {
      Lane& ln = lanes[k];
      Fp12 x2 = fp12_sqr(t, ln.tx);
      Fp12 three_x2 = fp12_add(fp12_add(x2, x2), x2);
      Fp12 lambda = fp12_mul(t, three_x2, denoms[k]);
      Fp12 line =
          fp12_sub(fp12_sub(ln.yp, ln.ty), fp12_mul(t, lambda, fp12_sub(ln.xp, ln.tx)));
      f_num = fp12_mul(t, f_num, line);
      Fp12 x_new = fp12_sub(fp12_sub(fp12_sqr(t, lambda), ln.tx), ln.tx);
      Fp12 y_new = fp12_sub(fp12_mul(t, lambda, fp12_sub(ln.tx, x_new)), ln.ty);
      ln.tx = x_new;
      ln.ty = y_new;
      f_den = fp12_mul(t, f_den, fp12_sub(ln.xp, ln.tx));
    }

    if (loop.bit(i)) {
      // Chord through T and Q, evaluated at P; then T = T + Q.
      for (size_t k = 0; k < lanes.size(); ++k) {
        denoms[k] = fp12_sub(lanes[k].qx, lanes[k].tx);
      }
      batch_inv(denoms);
      for (size_t k = 0; k < lanes.size(); ++k) {
        Lane& ln = lanes[k];
        Fp12 lambda2 = fp12_mul(t, fp12_sub(ln.qy, ln.ty), denoms[k]);
        Fp12 line2 = fp12_sub(fp12_sub(ln.yp, ln.ty),
                              fp12_mul(t, lambda2, fp12_sub(ln.xp, ln.tx)));
        f_num = fp12_mul(t, f_num, line2);
        Fp12 x3 = fp12_sub(fp12_sub(fp12_sqr(t, lambda2), ln.tx), ln.qx);
        Fp12 y3 = fp12_sub(fp12_mul(t, lambda2, fp12_sub(ln.tx, x3)), ln.ty);
        ln.tx = x3;
        ln.ty = y3;
        f_den = fp12_mul(t, f_den, fp12_sub(ln.xp, ln.tx));
      }
    }
  }

  // z < 0: f_{z} = 1 / f_{|z|} (the vertical correction dies in the
  // final exponentiation).
  return fp12_mul(t, f_den, fp12_inv(t, f_num));
}

Gt381 Bls12Ctx::pair_reference(const G1Point381& p, const G2Point381& q) const {
  const TowerCtx& t = *tower_;
  if (p.inf || q.inf) return fp12_one(t);
  std::pair<G1Point381, G2Point381> one_pair[1] = {{p, q}};
  Fp12 m = miller_ate_reference(one_pair);
  // Reference final exponentiation: structured easy part + generic power
  // by the validated hard exponent — fully independent of the
  // cyclotomic chain, so fast-vs-reference tests cross-check both
  // halves of the fast engine.
  Fp12 frob6 = m;
  for (int i = 0; i < 6; ++i) frob6 = fp12_frobenius(t, frob6);
  Fp12 f1 = fp12_mul(t, frob6, fp12_inv(t, m));
  Fp12 f2 = fp12_mul(t, fp12_frobenius(t, fp12_frobenius(t, f1)), f1);
  return fp12_pow(t, f2, hard_exponent_);
}

bool Bls12Ctx::pairings_equal_reference(const G1Point381& a1, const G2Point381& a2,
                                        const G1Point381& b1,
                                        const G2Point381& b2) const {
  if (a1.inf || a2.inf || b1.inf || b2.inf) {
    return fp12_eq(pair_reference(a1, a2), pair_reference(b1, b2));
  }
  std::pair<G1Point381, G2Point381> two[2] = {{a1, a2}, {b1, g2_neg(b2)}};
  Fp12 m = miller_ate_reference(two);
  const TowerCtx& t = *tower_;
  Fp12 frob6 = m;
  for (int i = 0; i < 6; ++i) frob6 = fp12_frobenius(t, frob6);
  Fp12 f1 = fp12_mul(t, frob6, fp12_inv(t, m));
  Fp12 f2 = fp12_mul(t, fp12_frobenius(t, fp12_frobenius(t, f1)), f1);
  return fp12_is_one(t, fp12_pow(t, f2, hard_exponent_));
}

// ---------------------------------------------------------------------------
// Gt exponentiation.

Gt381 Bls12Ctx::gt_pow(const Gt381& a, const Scalar& e) const {
  return fp12_pow(*tower_, a, e);
}

Gt381 Bls12Ctx::gt_pow_unitary(const Gt381& a, const Scalar& e) const {
  const TowerCtx& t = *tower_;
  if (e.is_zero()) return fp12_one(t);
  // Width-5 wNAF over cyclotomic squarings; negative digits cost only a
  // conjugation (the input is unit-norm, e.g. any pairing output).
  std::int8_t digits[bigint::kWnafMaxDigits<field::kMaxFieldLimbs>];
  size_t n = bigint::wnaf_into(e, 5, digits);
  std::array<Fp12, 8> tab;  // a^1, a^3, ..., a^15
  tab[0] = a;
  Fp12 a2 = fp12_cyclotomic_sqr(t, a);
  for (size_t i = 1; i < 8; ++i) tab[i] = fp12_mul(t, tab[i - 1], a2);
  Fp12 acc = fp12_one(t);
  for (size_t i = n; i-- > 0;) {
    acc = fp12_cyclotomic_sqr(t, acc);
    int d = digits[i];
    if (d > 0) {
      acc = fp12_mul(t, acc, tab[static_cast<size_t>(d - 1) / 2]);
    } else if (d < 0) {
      acc = fp12_mul(t, acc, fp12_conjugate(tab[static_cast<size_t>(-d - 1) / 2]));
    }
  }
  return acc;
}

Scalar Bls12Ctx::random_scalar(tre::hashing::RandomSource& rng) const {
  return bigint::random_nonzero_below(rng, r());
}

}  // namespace tre::bls12
