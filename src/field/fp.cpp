#include "field/fp.h"

#include "bigint/prime.h"

namespace tre::field {

FpCtx::FpCtx(const FpInt& modulus) : p(modulus), mont(modulus) {
  byte_len = (p.bit_length() + 7) / 8;
  p_mod_4_is_3 = (p.w[0] & 3) == 3;
  if (p_mod_4_is_3) {
    FpInt e = bigint::add(p, FpInt::from_u64(1));
    sqrt_exponent = bigint::shr(e, 2);
  }
}

Fp Fp::from_int(const FpCtx* ctx, const FpInt& v) {
  require(ctx != nullptr, "Fp: null context");
  FpInt reduced = v >= ctx->p ? bigint::mod(v, ctx->p) : v;
  return Fp(ctx, ctx->mont.to_mont(reduced));
}

Fp Fp::from_bytes_wide(const FpCtx* ctx, ByteSpan bytes) {
  require(ctx != nullptr, "Fp: null context");
  require(bytes.size() <= 2 * 8 * kMaxFieldLimbs, "Fp::from_bytes_wide: too long");
  // Horner over chunks of 8n bytes (n active limbs, R = 2^{64n}), most
  // significant first: acc ← acc·R + chunk, kept in Montgomery form, so
  // (acc·R + c)·R = to_mont(acc_mont) + to_mont(c). Each to_mont is one
  // CIOS product by R² mod p < p, and each chunk is below R, so the
  // product stays below 2p and its one conditional subtraction reduces it.
  const bigint::MontCtx<kMaxFieldLimbs>& mont = ctx->mont;
  const size_t chunk = 8 * mont.active_limbs();
  FpInt acc{};
  size_t off = 0;
  size_t take = bytes.size() % chunk == 0 ? chunk : bytes.size() % chunk;
  while (off < bytes.size()) {
    FpInt c = FpInt::from_bytes_be(bytes.subspan(off, take));
    acc = mont.add(mont.to_mont(acc), mont.to_mont(c));
    off += take;
    take = chunk;
  }
  return Fp(ctx, acc);
}

Fp Fp::from_bytes(const FpCtx* ctx, ByteSpan bytes) {
  require(ctx != nullptr, "Fp: null context");
  require(bytes.size() == ctx->byte_len, "Fp::from_bytes: wrong length");
  FpInt v = FpInt::from_bytes_be(bytes);
  require(v < ctx->p, "Fp::from_bytes: value not reduced");
  return Fp(ctx, ctx->mont.to_mont(v));
}

Fp Fp::random(const FpCtx* ctx, tre::hashing::RandomSource& rng) {
  require(ctx != nullptr, "Fp: null context");
  return Fp(ctx, ctx->mont.to_mont(bigint::random_below(rng, ctx->p)));
}

FpInt Fp::to_int() const {
  require(ctx_ != nullptr, "Fp: null context");
  return ctx_->mont.from_mont(v_);
}

Bytes Fp::to_bytes() const { return to_int().to_bytes_be(ctx_->byte_len); }

Fp Fp::inverse() const {
  require(ctx_ != nullptr, "Fp: null context");
  require(!is_zero(), "Fp: inverse of zero");
  // v = a*R. mod_inverse gives a^{-1}R^{-1}; one Montgomery mul by the
  // precomputed R^3 restores Montgomery form: a^{-1}R^{-1}·R^3·R^{-1} = a^{-1}R.
  FpInt u = bigint::mod_inverse(v_, ctx_->p);
  return Fp(ctx_, ctx_->mont.mul(u, ctx_->mont.r3()));
}

Fp Fp::pow(const FpInt& e) const {
  require(ctx_ != nullptr, "Fp: null context");
  return Fp(ctx_, ctx_->mont.pow(v_, e));
}

std::optional<Fp> Fp::sqrt() const {
  require(ctx_ != nullptr, "Fp: null context");
  require(ctx_->p_mod_4_is_3, "Fp::sqrt: requires p = 3 (mod 4)");
  Fp r = pow(ctx_->sqrt_exponent);
  if (r.squared() == *this) return r;
  return std::nullopt;
}

}  // namespace tre::field
