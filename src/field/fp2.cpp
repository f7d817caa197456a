#include "field/fp2.h"

#include <array>

namespace tre::field {

bool Fp2::is_one() const {
  return b_.is_zero() && a_ == Fp::one(a_.ctx());
}

Fp2 Fp2::pow(const FpInt& e) const {
  return bigint::pow_sliding_window(
      one(ctx()), *this, e, [](const Fp2& x, const Fp2& y) { return x * y; },
      [](const Fp2& x) { return x.squared(); });
}

Fp2 Fp2::pow_unitary(const FpInt& e) const {
  const FpCtx* fp = ctx();
  require(norm() == Fp::one(fp), "Fp2::pow_unitary: element is not norm-1");
  // Signed digits are free: for norm-1 z, z^{-1} = conj(z). The recoding
  // lives on the stack: pow_unitary runs once per encrypt/decrypt on
  // every pool worker, so the exponentiation inner loop allocates nothing.
  std::array<std::int8_t, bigint::kWnafMaxDigits<kMaxFieldLimbs>> digits;
  const size_t ndigits = bigint::wnaf_into(e, 5, digits.data());
  std::array<Fp2, 8> odd;  // z^1, z^3, ..., z^15
  odd[0] = *this;
  const Fp2 sq = squared();
  for (size_t i = 1; i < odd.size(); ++i) odd[i] = odd[i - 1] * sq;

  Fp2 acc = one(fp);
  for (size_t i = ndigits; i-- > 0;) {
    acc = acc.squared();
    std::int8_t d = digits[i];
    if (d > 0) {
      acc = acc * odd[static_cast<size_t>(d) / 2];
    } else if (d < 0) {
      acc = acc * odd[static_cast<size_t>(-d) / 2].conjugate();
    }
  }
  return acc;
}

std::optional<Fp2> Fp2::sqrt() const {
  const FpCtx* fp = ctx();
  if (is_zero()) return *this;
  if (b_.is_zero()) {
    // sqrt(a): in F_p when a is a QR; otherwise sqrt(-a)·i works because
    // i² = -1 and exactly one of ±a is a QR (p ≡ 3 mod 4 makes -1 a
    // non-residue).
    if (auto r = a_.sqrt()) return Fp2(*r, Fp::zero(fp));
    if (auto r = (-a_).sqrt()) return Fp2(Fp::zero(fp), *r);
    return std::nullopt;
  }
  auto alpha = norm().sqrt();
  if (!alpha) return std::nullopt;  // norm of any square is a square
  Fp half = Fp::from_u64(fp, 2).inverse();
  for (const Fp& delta : {(a_ + *alpha) * half, (a_ - *alpha) * half}) {
    auto x = delta.sqrt();
    if (!x || x->is_zero()) continue;
    Fp y = b_ * (*x + *x).inverse();
    Fp2 candidate(*x, y);
    if (candidate.squared() == *this) return candidate;
  }
  return std::nullopt;
}

Bytes Fp2::to_bytes() const {
  Bytes re_bytes = a_.to_bytes();
  Bytes im_bytes = b_.to_bytes();
  return concat({re_bytes, im_bytes});
}

Fp2 Fp2::from_bytes(const FpCtx* ctx, ByteSpan bytes) {
  require(ctx != nullptr, "Fp2: null context");
  require(bytes.size() == 2 * ctx->byte_len, "Fp2::from_bytes: wrong length");
  return Fp2(Fp::from_bytes(ctx, bytes.subspan(0, ctx->byte_len)),
             Fp::from_bytes(ctx, bytes.subspan(ctx->byte_len)));
}

}  // namespace tre::field
