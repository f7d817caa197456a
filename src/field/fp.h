// Prime-field arithmetic.
//
// `Fp` is a field element in Montgomery form carrying a pointer to its
// shared, immutable `FpCtx`. One context is built per modulus (the curve
// base field p and the scalar field q each get one). The limb capacity is
// fixed at 12 (768 bits) — enough for every embedded parameter set — and
// the context's runtime limb count keeps small parameter sets fast.
#pragma once

#include <optional>

#include "bigint/bigint.h"
#include "bigint/montgomery.h"
#include "hashing/drbg.h"

namespace tre::field {

inline constexpr size_t kMaxFieldLimbs = 12;
using FpInt = bigint::BigInt<kMaxFieldLimbs>;

struct FpCtx {
  FpInt p;
  bigint::MontCtx<kMaxFieldLimbs> mont;
  size_t byte_len;        // fixed serialization width
  bool p_mod_4_is_3;      // enables the (p+1)/4 square root
  FpInt sqrt_exponent;    // (p+1)/4 when p ≡ 3 (mod 4)

  explicit FpCtx(const FpInt& modulus);

  FpCtx(const FpCtx&) = delete;
  FpCtx& operator=(const FpCtx&) = delete;
};

class Fp {
 public:
  Fp() = default;  // null element: usable only as assignment target

  static Fp zero(const FpCtx* ctx) { return Fp(ctx, FpInt{}); }
  static Fp one(const FpCtx* ctx) { return Fp(ctx, ctx->mont.one()); }

  /// From a plain integer (reduced mod p if needed).
  static Fp from_int(const FpCtx* ctx, const FpInt& v);
  static Fp from_u64(const FpCtx* ctx, std::uint64_t v) {
    return from_int(ctx, FpInt::from_u64(v));
  }

  /// Interprets up to 2*byte_len big-endian bytes, reduced mod p. Used to
  /// map hash output to a near-uniform field element.
  static Fp from_bytes_wide(const FpCtx* ctx, ByteSpan bytes);

  /// Fixed-width canonical deserialization (value must be < p).
  static Fp from_bytes(const FpCtx* ctx, ByteSpan bytes);

  /// Uniform random element.
  static Fp random(const FpCtx* ctx, tre::hashing::RandomSource& rng);

  FpInt to_int() const;
  Bytes to_bytes() const;

  const FpCtx* ctx() const { return ctx_; }
  bool is_zero() const { return v_.is_zero(); }

  // The four hot operations are defined inline so the Montgomery kernels
  // (bigint/montgomery.h) inline straight into the extension-tower code —
  // an out-of-line call here costs a 96-byte copy per operand on every
  // one of the dozens of base-field ops inside a single Fp12 multiply.
  Fp operator+(const Fp& o) const {
    require(ctx_ != nullptr && ctx_ == o.ctx_, "Fp: context mismatch");
    return Fp(ctx_, ctx_->mont.add(v_, o.v_));
  }
  Fp operator-(const Fp& o) const {
    require(ctx_ != nullptr && ctx_ == o.ctx_, "Fp: context mismatch");
    return Fp(ctx_, ctx_->mont.sub(v_, o.v_));
  }
  Fp operator*(const Fp& o) const {
    require(ctx_ != nullptr && ctx_ == o.ctx_, "Fp: context mismatch");
    return Fp(ctx_, ctx_->mont.mul(v_, o.v_));
  }
  Fp operator-() const {
    require(ctx_ != nullptr, "Fp: null context");
    return Fp(ctx_, ctx_->mont.sub(FpInt{}, v_));
  }
  Fp squared() const {
    require(ctx_ != nullptr, "Fp: null context");
    return Fp(ctx_, ctx_->mont.sqr(v_));
  }
  Fp inverse() const;
  Fp pow(const FpInt& e) const;
  Fp doubled() const { return *this + *this; }

  /// Square root for p ≡ 3 (mod 4); nullopt when no root exists.
  std::optional<Fp> sqrt() const;

  /// Equality is by value: elements over distinct context objects with the
  /// same modulus compare equal (Montgomery form is a function of the
  /// modulus alone). Arithmetic still requires the identical context.
  friend bool operator==(const Fp& a, const Fp& b) {
    if (a.ctx_ == b.ctx_) return a.v_ == b.v_;
    return a.ctx_ != nullptr && b.ctx_ != nullptr && a.ctx_->p == b.ctx_->p &&
           a.v_ == b.v_;
  }

 private:
  Fp(const FpCtx* ctx, const FpInt& mont_value) : ctx_(ctx), v_(mont_value) {}

  const FpCtx* ctx_ = nullptr;
  FpInt v_{};  // Montgomery form
};

}  // namespace tre::field
