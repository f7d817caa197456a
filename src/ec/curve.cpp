#include "ec/curve.h"

#include <vector>

#include "ec/multiexp.h"
#include "hashing/kdf.h"

namespace tre::ec {

using field::Fp;
using field::Fp2;
using field::FpInt;

namespace {

// Exact division helper over a 13-limb scratch width (2p-1 can exceed the
// 768-bit element width by one bit).
using WideInt = bigint::BigInt<field::kMaxFieldLimbs + 1>;

FpInt exact_div(const WideInt& num, const WideInt& den, const char* what) {
  WideInt quo, rem;
  bigint::divmod(num, den, quo, rem);
  require(rem.is_zero(), what);
  return quo.resized<field::kMaxFieldLimbs>();
}

}  // namespace

std::shared_ptr<const CurveCtx> CurveCtx::create(std::string name, const FpInt& p,
                                                 const FpInt& q) {
  auto ctx = std::make_shared<CurveCtx>();
  ctx->name = std::move(name);
  ctx->p = p;
  ctx->q = q;
  ctx->fp = std::make_shared<const field::FpCtx>(p);
  ctx->fq = std::make_shared<const field::FpCtx>(q);

  require(ctx->fp->p_mod_4_is_3, "CurveCtx: p must be 3 (mod 4)");
  {
    FpInt quo, rem;
    bigint::divmod(p, FpInt::from_u64(3), quo, rem);
    require(rem == FpInt::from_u64(2), "CurveCtx: p must be 2 (mod 3)");
  }

  WideInt p_wide = p.resized<field::kMaxFieldLimbs + 1>();
  WideInt p_plus_1 = bigint::add(p_wide, WideInt::from_u64(1));
  ctx->cofactor = exact_div(p_plus_1, q.resized<field::kMaxFieldLimbs + 1>(),
                            "CurveCtx: q must divide p + 1");

  WideInt two_p_minus_1 = bigint::sub(bigint::shl(p_wide, 1), WideInt::from_u64(1));
  ctx->cube_root_exp = exact_div(two_p_minus_1, WideInt::from_u64(3),
                                 "CurveCtx: 2p - 1 must be divisible by 3");

  // zeta = (-1 + sqrt(3) i) / 2. sqrt(3) exists in F_p for p ≡ 3 (mod 4),
  // p ≡ 2 (mod 3) by quadratic reciprocity.
  const field::FpCtx* fp = ctx->fp.get();
  auto sqrt3 = Fp::from_u64(fp, 3).sqrt();
  require(sqrt3.has_value(), "CurveCtx: 3 is not a square mod p");
  Fp inv2 = Fp::from_u64(fp, 2).inverse();
  ctx->zeta = Fp2(-inv2, *sqrt3 * inv2);
  // Sanity: zeta^2 + zeta + 1 == 0 and zeta != 1.
  require((ctx->zeta.squared() + ctx->zeta + Fp2::one(fp)).is_zero(),
          "CurveCtx: zeta is not a primitive cube root of unity");
  return ctx;
}

bool on_curve(const CurveCtx* curve, const Fp& x, const Fp& y) {
  Fp rhs = x.squared() * x + Fp::one(curve->fp.get());
  return y.squared() == rhs;
}

G1Point G1Point::infinity(const CurveCtx* curve) {
  require(curve != nullptr, "G1Point: null curve");
  const field::FpCtx* fp = curve->fp.get();
  return G1Point(curve, Fp::zero(fp), Fp::zero(fp), true);
}

G1Point G1Point::make(const CurveCtx* curve, const Fp& x, const Fp& y) {
  require(curve != nullptr, "G1Point: null curve");
  require(on_curve(curve, x, y), "G1Point: point not on curve");
  return G1Point(curve, x, y, false);
}

const Fp& G1Point::x() const {
  require(!infinity_, "G1Point: infinity has no coordinates");
  return x_;
}

const Fp& G1Point::y() const {
  require(!infinity_, "G1Point: infinity has no coordinates");
  return y_;
}

G1Point G1Point::operator-() const {
  if (infinity_) return *this;
  return G1Point(curve_, x_, -y_, false);
}

G1Point G1Point::doubled() const {
  if (infinity_) return *this;
  if (y_.is_zero()) return infinity(curve_);
  // lambda = 3x^2 / 2y
  Fp three_x2 = x_.squared();
  three_x2 = three_x2 + three_x2 + three_x2;
  Fp lambda = three_x2 * (y_ + y_).inverse();
  Fp x3 = lambda.squared() - x_ - x_;
  Fp y3 = lambda * (x_ - x3) - y_;
  return G1Point(curve_, x3, y3, false);
}

G1Point G1Point::operator+(const G1Point& o) const {
  require(curve_ != nullptr && curve_ == o.curve_, "G1Point: curve mismatch");
  if (infinity_) return o;
  if (o.infinity_) return *this;
  if (x_ == o.x_) {
    if (y_ == o.y_) return doubled();
    return infinity(curve_);  // y1 == -y2
  }
  Fp lambda = (o.y_ - y_) * (o.x_ - x_).inverse();
  Fp x3 = lambda.squared() - x_ - o.x_;
  Fp y3 = lambda * (x_ - x3) - y_;
  return G1Point(curve_, x3, y3, false);
}

namespace {

// A kernel result as a point of `curve` (make re-checks it is on E).
G1Point as_g1(const CurveCtx* curve, const Affine<Fp>& p) {
  return p.inf ? G1Point::infinity(curve) : G1Point::make(curve, p.x, p.y);
}

Comb<Fp> comb_of(const G1Point& base) {
  require(base.curve() != nullptr, "G1Precomp: null curve");
  require(!base.is_infinity(), "G1Precomp: infinity base");
  return Comb<Fp>(base.affine(), base.curve()->q.bit_length());
}

}  // namespace

G1Point G1Point::mul(const FpInt& k) const {
  require(curve_ != nullptr, "G1Point: null curve");
  return as_g1(curve_, mul_wnaf(affine(), k));
}

G1Point G1Point::mul_secret(const FpInt& k) const {
  require(curve_ != nullptr, "G1Point: null curve");
  return as_g1(curve_, ec::mul_secret(affine(), k, curve_->q.bit_length()));
}

G1Precomp::G1Precomp(const G1Point& base) : curve_(base.curve()), comb_(comb_of(base)) {}

G1Point G1Precomp::mul(const FpInt& k) const { return as_g1(curve_, comb_.mul(k)); }

G1Point G1Precomp::mul_secret(const FpInt& k) const {
  return as_g1(curve_, comb_.mul_secret(k));
}

bool G1Point::in_subgroup() const {
  require(curve_ != nullptr, "G1Point: null curve");
  return mul(curve_->q).is_infinity();
}

Bytes G1Point::to_bytes() const {
  require(curve_ != nullptr, "G1Point: null curve");
  size_t w = curve_->fp->byte_len;
  Bytes out(1 + 2 * w, 0);
  if (infinity_) return out;  // tag 0x00
  out[0] = 0x04;
  Bytes xb = x_.to_bytes();
  Bytes yb = y_.to_bytes();
  std::copy(xb.begin(), xb.end(), out.begin() + 1);
  std::copy(yb.begin(), yb.end(), out.begin() + 1 + static_cast<long>(w));
  return out;
}

Bytes G1Point::to_bytes_compressed() const {
  require(curve_ != nullptr, "G1Point: null curve");
  size_t w = curve_->fp->byte_len;
  Bytes out(1 + w, 0);
  if (infinity_) return out;  // tag 0x00
  out[0] = static_cast<std::uint8_t>(0x02 | (y_.to_int().w[0] & 1));
  Bytes xb = x_.to_bytes();
  std::copy(xb.begin(), xb.end(), out.begin() + 1);
  return out;
}

G1Point G1Point::from_bytes(const CurveCtx* curve, ByteSpan bytes) {
  require(curve != nullptr, "G1Point: null curve");
  const field::FpCtx* fp = curve->fp.get();
  size_t w = fp->byte_len;
  require(bytes.size() == 1 + 2 * w || bytes.size() == 1 + w,
          "G1Point::from_bytes: wrong length");
  std::uint8_t tag = bytes[0];
  if (tag == 0x00) {
    for (size_t i = 1; i < bytes.size(); ++i) {
      require(bytes[i] == 0, "G1Point::from_bytes: malformed infinity");
    }
    return infinity(curve);
  }
  if (tag == 0x04) {
    require(bytes.size() == 1 + 2 * w, "G1Point::from_bytes: wrong length for 0x04");
    Fp x = Fp::from_bytes(fp, bytes.subspan(1, w));
    Fp y = Fp::from_bytes(fp, bytes.subspan(1 + w, w));
    return make(curve, x, y);
  }
  if (tag == 0x02 || tag == 0x03) {
    require(bytes.size() == 1 + w, "G1Point::from_bytes: wrong length for compressed");
    Fp x = Fp::from_bytes(fp, bytes.subspan(1, w));
    Fp rhs = x.squared() * x + Fp::one(fp);
    auto y = rhs.sqrt();
    require(y.has_value(), "G1Point::from_bytes: x has no curve point");
    std::uint64_t want_parity = tag & 1;
    if ((y->to_int().w[0] & 1) != want_parity) *y = -*y;
    return make(curve, x, *y);
  }
  throw Error("G1Point::from_bytes: unknown tag");
}

G1Point hash_to_g1(const CurveCtx* curve, ByteSpan msg) {
  require(curve != nullptr, "hash_to_g1: null curve");
  const field::FpCtx* fp = curve->fp.get();
  for (std::uint32_t counter = 0;; ++counter) {
    Bytes input = concat({msg, be32(counter)});
    Bytes h = hashing::oracle_bytes("TRE-H1", input, 2 * fp->byte_len);
    Fp y = Fp::from_bytes_wide(fp, h);
    // x = (y^2 - 1)^((2p-1)/3) is the unique cube root of y^2 - 1.
    Fp x = (y.squared() - Fp::one(fp)).pow(curve->cube_root_exp);
    G1Point p = G1Point::make(curve, x, y);
    G1Point cleared = p.mul(curve->cofactor);
    if (!cleared.is_infinity()) return cleared;
  }
}

G1Point g1_multiexp(const CurveCtx* curve, std::span<const G1Point> points,
                    std::span<const field::FpInt> scalars, unsigned threads) {
  require(curve != nullptr, "g1_multiexp: null curve");
  std::vector<Affine<Fp>> affine;
  affine.reserve(points.size());
  for (const G1Point& p : points) affine.push_back(p.affine());
  return as_g1(curve, multiexp<Fp>(affine, scalars, threads));
}

}  // namespace tre::ec
