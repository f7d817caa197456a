#include "bls12/fq.h"

#include "bigint/prime.h"

namespace tre::bls12 {

namespace {

static_assert((fq_detail::kP.w[0] & 3) == 3, "Fq::sqrt needs p = 3 (mod 4)");
constexpr Fq::Int kSqrtExponent =
    bigint::shr(bigint::add(fq_detail::kP, Fq::Int::from_u64(1)), 2);  // (p+1)/4

}  // namespace

Fq Fq::from_bytes(ByteSpan bytes) {
  require(bytes.size() == kBytes, "Fq::from_bytes: wrong length");
  const Int v = Int::from_bytes_be(bytes);
  require(v < fq_detail::kP, "Fq::from_bytes: value not reduced");
  return Fq(fq_detail::mont_mul(fq_detail::kR2, v));
}

Fq Fq::from_bytes_wide(ByteSpan bytes) {
  require(bytes.size() <= 2 * kBytes, "Fq::from_bytes_wide: too long");
  // Horner over 48-byte chunks (R = 2^384), most significant first, as
  // field::Fp::from_bytes_wide does: acc ← acc·R + chunk in Montgomery
  // form is to_mont(acc) + to_mont(chunk). A chunk may exceed p, but it is
  // the product's unreduced operand, so one product by R² mod p reduces it.
  Fq acc;
  size_t off = 0;
  size_t take = bytes.size() % kBytes == 0 ? kBytes : bytes.size() % kBytes;
  while (off < bytes.size()) {
    const Int chunk = Int::from_bytes_be(bytes.subspan(off, take));
    acc = Fq(fq_detail::mont_mul(fq_detail::kR2, acc.v_)) +
          Fq(fq_detail::mont_mul(fq_detail::kR2, chunk));
    off += take;
    take = kBytes;
  }
  return acc;
}

Fq Fq::random(hashing::RandomSource& rng) {
  return Fq(fq_detail::mont_mul(fq_detail::kR2, bigint::random_below(rng, fq_detail::kP)));
}

Fq Fq::inverse() const {
  require(!is_zero(), "Fq: inverse of zero");
  // mod_inverse of the residue a·R is a⁻¹R⁻¹; a product by R³ restores a⁻¹R.
  return Fq(fq_detail::mont_mul(fq_detail::kR3, bigint::mod_inverse(v_, fq_detail::kP)));
}

std::optional<Fq> Fq::sqrt() const {
  const Fq r = pow(kSqrtExponent);
  if (r.squared() == *this) return r;
  return std::nullopt;
}

Fq2 Fq2::inverse() const {
  const Fq n = norm().inverse();
  return Fq2(re_ * n, -im_ * n);
}

std::optional<Fq2> Fq2::sqrt() const {
  // For z = a + bu: sqrt(z) = x + (b/2x)u with x² = (a ± |z|)/2, verified
  // before returning. The candidates are tried in field::Fp2::sqrt's order,
  // so both return the same root.
  if (is_zero()) return *this;
  if (im_.is_zero()) {
    // Exactly one of ±a is a square (−1 is not, p ≡ 3 mod 4).
    if (auto r = re_.sqrt()) return Fq2(*r, Fq());
    if (auto r = (-re_).sqrt()) return Fq2(Fq(), *r);
    return std::nullopt;
  }
  auto alpha = norm().sqrt();
  if (!alpha) return std::nullopt;  // the norm of a square is a square
  static const Fq kHalf = Fq::from_u64(2).inverse();
  for (const Fq& delta : {(re_ + *alpha) * kHalf, (re_ - *alpha) * kHalf}) {
    auto x = delta.sqrt();
    if (!x || x->is_zero()) continue;
    const Fq2 candidate(*x, im_ * (*x + *x).inverse());
    if (candidate.squared() == *this) return candidate;
  }
  return std::nullopt;
}

Bytes Fq2::to_bytes() const { return concat({re_.to_bytes(), im_.to_bytes()}); }

Fq2 Fq2::from_bytes(ByteSpan bytes) {
  require(bytes.size() == 2 * Fq::kBytes, "Fq2::from_bytes: wrong length");
  return Fq2(Fq::from_bytes(bytes.subspan(0, Fq::kBytes)),
             Fq::from_bytes(bytes.subspan(Fq::kBytes)));
}

}  // namespace tre::bls12
