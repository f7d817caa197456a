#include "idtre/idtre.h"

#include "hashing/kdf.h"

namespace tre::idtre {

using ec::G1Point;

namespace {
constexpr size_t kSigmaBytes = 32;
}

IdTreScheme::IdTreScheme(std::shared_ptr<const params::GdhParams> params)
    : scheme_(std::move(params)) {}

ServerKeyPair IdTreScheme::setup(tre::hashing::RandomSource& rng) const {
  return scheme_.server_keygen(rng);
}

IdPrivateKey IdTreScheme::extract(const ServerKeyPair& authority,
                                  std::string_view id) const {
  return IdPrivateKey{std::string(id), scheme_.hash_tag(id).mul_secret(authority.s)};
}

bool IdTreScheme::verify_private_key(const ServerPublicKey& authority,
                                     const IdPrivateKey& key) const {
  if (key.d.is_infinity()) return false;
  return pairing::pairings_equal(authority.sg, scheme_.hash_tag(key.id),
                                 authority.g, key.d);
}

KeyUpdate IdTreScheme::issue_update(const ServerKeyPair& authority,
                                    std::string_view tag) const {
  return scheme_.issue_update(authority, tag);
}

bool IdTreScheme::verify_update(const ServerPublicKey& authority,
                                const KeyUpdate& update) const {
  return scheme_.verify_update(authority, update);
}

Gt IdTreScheme::session_key(const ServerPublicKey& authority, std::string_view id,
                            std::string_view tag, const Scalar& r) const {
  G1Point ke = scheme_.hash_tag(id) + scheme_.hash_tag(tag);
  return pairing::pair(authority.sg, ke).pow(r);
}

Ciphertext IdTreScheme::encrypt(ByteSpan msg, std::string_view id,
                                const ServerPublicKey& authority,
                                std::string_view tag,
                                tre::hashing::RandomSource& rng) const {
  Scalar r = params::random_scalar(scheme_.params(), rng);
  Gt k = session_key(authority, id, tag, r);
  return Ciphertext{authority.g.mul_secret(r),
                    xor_bytes(msg, scheme_.mask_h2(k, msg.size()))};
}

Bytes IdTreScheme::decrypt(const Ciphertext& ct, const IdPrivateKey& key,
                           const KeyUpdate& update) const {
  // K_D = s·H1(ID) + s·H1(T).
  G1Point kd = key.d + update.sig;
  Gt k = pairing::pair(ct.u, kd);
  return xor_bytes(ct.v, scheme_.mask_h2(k, ct.v.size()));
}

FoCiphertext IdTreScheme::encrypt_fo(ByteSpan msg, std::string_view id,
                                     const ServerPublicKey& authority,
                                     std::string_view tag,
                                     tre::hashing::RandomSource& rng) const {
  Bytes sigma = rng.bytes(kSigmaBytes);
  // Reuse the TRE H3 oracle for r = H3(sigma, M).
  Scalar r = scheme_.hash_to_scalar("TRE-H3", concat({sigma, msg}));
  Gt k = session_key(authority, id, tag, r);
  Bytes c_sigma = xor_bytes(sigma, scheme_.mask_h2(k, kSigmaBytes));
  Bytes c_msg = xor_bytes(msg, hashing::oracle_bytes("TRE-H4", sigma, msg.size()));
  return FoCiphertext{authority.g.mul_secret(r), std::move(c_sigma), std::move(c_msg)};
}

std::optional<Bytes> IdTreScheme::decrypt_fo(const FoCiphertext& ct,
                                             const IdPrivateKey& key,
                                             const KeyUpdate& update,
                                             const ServerPublicKey& authority) const {
  if (ct.c_sigma.size() != kSigmaBytes) return std::nullopt;
  G1Point kd = key.d + update.sig;
  Gt k = pairing::pair(ct.u, kd);
  Bytes sigma = xor_bytes(ct.c_sigma, scheme_.mask_h2(k, kSigmaBytes));
  Bytes msg = xor_bytes(ct.c_msg, hashing::oracle_bytes("TRE-H4", sigma, ct.c_msg.size()));
  Scalar r = scheme_.hash_to_scalar("TRE-H3", concat({sigma, msg}));
  if (!(authority.g.mul_secret(r) == ct.u)) return std::nullopt;
  return msg;
}

}  // namespace tre::idtre
