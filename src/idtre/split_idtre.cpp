#include "idtre/split_idtre.h"

namespace tre::idtre {

using core::Gt;
using core::Scalar;
using ec::G1Point;

SplitAuthorityIdTre::SplitAuthorityIdTre(std::shared_ptr<const params::GdhParams> params)
    : scheme_(std::move(params)) {}

ServerKeyPair SplitAuthorityIdTre::authority_keygen(tre::hashing::RandomSource& rng) const {
  Scalar s = params::random_scalar(scheme_.params(), rng);
  const G1Point& base = scheme_.params().base;
  return ServerKeyPair{s, ServerPublicKey{base, base.mul_secret(s)}};
}

IdPrivateKey SplitAuthorityIdTre::extract(const ServerKeyPair& ta,
                                          std::string_view id) const {
  return IdPrivateKey{std::string(id), scheme_.hash_tag(id).mul_secret(ta.s)};
}

KeyUpdate SplitAuthorityIdTre::issue_update(const ServerKeyPair& ts,
                                            std::string_view tag) const {
  return scheme_.issue_update(ts, tag);
}

bool SplitAuthorityIdTre::verify_private_key(const ServerPublicKey& ta,
                                             const IdPrivateKey& key) const {
  if (key.d.is_infinity()) return false;
  return pairing::pairings_equal(ta.sg, scheme_.hash_tag(key.id), ta.g, key.d);
}

bool SplitAuthorityIdTre::verify_update(const ServerPublicKey& ts,
                                        const KeyUpdate& update) const {
  return scheme_.verify_update(ts, update);
}

Ciphertext SplitAuthorityIdTre::encrypt(ByteSpan msg, std::string_view id,
                                        const ServerPublicKey& ta,
                                        const ServerPublicKey& ts,
                                        std::string_view tag,
                                        tre::hashing::RandomSource& rng) const {
  require(ta.g == scheme_.params().base && ts.g == scheme_.params().base,
          "SplitAuthorityIdTre: both authorities must use the system generator");
  Scalar r = params::random_scalar(scheme_.params(), rng);
  // K = [ê(s1·G, H1(ID)) · ê(s2·G, H1(T))]^r, one final exponentiation.
  std::vector<std::pair<G1Point, G1Point>> pairs = {
      {ta.sg, scheme_.hash_tag(id)},
      {ts.sg, scheme_.hash_tag(tag)},
  };
  Gt k = pairing::pair_product(pairs).pow(r);
  return Ciphertext{scheme_.params().base.mul_secret(r),
                    xor_bytes(msg, scheme_.mask_h2(k, msg.size()))};
}

Bytes SplitAuthorityIdTre::decrypt(const Ciphertext& ct, const IdPrivateKey& key,
                                   const KeyUpdate& update) const {
  // K' = ê(U, d_ID + I_T): the additive trick again — one pairing.
  Gt k = pairing::pair(ct.u, key.d + update.sig);
  return xor_bytes(ct.v, scheme_.mask_h2(k, ct.v.size()));
}

}  // namespace tre::idtre
