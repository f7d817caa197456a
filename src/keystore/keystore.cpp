#include "keystore/keystore.h"

#include "common/error.h"
#include "common/health.h"
#include "common/wire.h"
#include "hashing/hmac.h"
#include "hashing/kdf.h"

namespace tre::keystore {

namespace {
constexpr size_t kSaltLen = 16;
constexpr size_t kMacLen = 32;
}  // namespace

Bytes derive_key(std::string_view password, ByteSpan salt, std::uint32_t iterations,
                 size_t out_len) {
  health::ensure_operational();
  require(iterations >= 1, "keystore: zero iterations");
  Bytes pw = to_bytes(password);
  Bytes state = hashing::hmac_sha256_concat(pw, {salt, to_bytes("KSv1")});
  for (std::uint32_t i = 1; i < iterations; ++i) {
    state = hashing::hmac_sha256(pw, state);
  }
  return hashing::hkdf_sha256(salt, state, to_bytes("keystore-key"), out_len);
}

Bytes seal(ByteSpan secret, std::string_view password, tre::hashing::RandomSource& rng,
           std::uint32_t iterations) {
  Bytes salt = rng.bytes(kSaltLen);
  Bytes key = derive_key(password, salt, iterations, 64);
  ByteSpan enc_key(key.data(), 32);
  ByteSpan mac_key(key.data() + 32, 32);

  Bytes body = xor_bytes(secret, hashing::keystream(enc_key, salt, secret.size()));
  // Blob: salt || be32 iterations || body || HMAC over everything before it.
  Bytes authed = wire::Writer().raw(salt).u32(iterations).raw(body).take();
  return concat({authed, hashing::hmac_sha256(mac_key, authed)});
}

std::optional<Bytes> open(ByteSpan blob, std::string_view password) {
  if (blob.size() < kSaltLen + 4 + kMacLen) return std::nullopt;
  wire::Reader r(blob);
  ByteSpan salt = r.raw(kSaltLen);
  std::uint32_t iterations = r.u32();
  ByteSpan body = r.raw(r.remaining() - kMacLen);
  ByteSpan mac = r.raw(kMacLen);
  if (!r.finish() || iterations == 0) return std::nullopt;

  Bytes key = derive_key(password, salt, iterations, 64);
  ByteSpan enc_key(key.data(), 32);
  ByteSpan mac_key(key.data() + 32, 32);
  Bytes expected = hashing::hmac_sha256(mac_key, blob.first(blob.size() - kMacLen));
  if (!ct_equal(expected, mac)) return std::nullopt;
  return xor_bytes(body, hashing::keystream(enc_key, salt, body.size()));
}

}  // namespace tre::keystore
