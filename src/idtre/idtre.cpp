#include "idtre/idtre.h"

namespace tre::idtre {

using core::Scalar;
using ec::G1Point;

IdTreScheme::IdTreScheme(std::shared_ptr<const params::GdhParams> params)
    : scheme_(std::move(params)) {}

ServerKeyPair IdTreScheme::authority_keygen(tre::hashing::RandomSource& rng) const {
  health::ensure_operational();
  Scalar s = params::random_scalar(params(), rng);
  const G1Point& base = params().base;
  return ServerKeyPair{s, ServerPublicKey{base, base.mul_secret(s)}};
}

SealedCiphertext IdTreScheme::seal(Mode mode, ByteSpan msg, std::string_view id,
                                   const ServerPublicKey& authority, std::string_view tag,
                                   tre::hashing::RandomSource& rng) const {
  // sG = O would make K = 1, readable by anyone.
  require(!authority.sg.is_infinity(), "IdTreScheme: authority key sG is O");
  G1Point ke = scheme_.hash_tag(id) + scheme_.hash_tag(tag);
  return scheme_.seal_with(mode, msg, authority.g, rng, [&](const Scalar& r) {
    return core::counted_pair(authority.sg, ke).pow_unitary(r);
  });
}

SealedCiphertext IdTreScheme::seal(Mode mode, ByteSpan msg, std::string_view id,
                                   const ServerPublicKey& ta, const ServerPublicKey& ts,
                                   std::string_view tag,
                                   tre::hashing::RandomSource& rng) const {
  const G1Point& base = params().base;
  // Either sG = O drops that authority's factor from K.
  require(!ta.sg.is_infinity() && !ts.sg.is_infinity(),
          "IdTreScheme: authority key sG is O");
  require(ta.g == base && ts.g == base,
          "IdTreScheme: both authorities must use the system generator");
  std::vector<std::pair<G1Point, G1Point>> pairs = {
      {ta.sg, scheme_.hash_tag(id)},
      {ts.sg, scheme_.hash_tag(tag)},
  };
  // One final exponentiation for both pairings.
  return scheme_.seal_with(mode, msg, base, rng, [&](const Scalar& r) {
    return core::counted_pair_product(pairs).pow_unitary(r);
  });
}

std::optional<Bytes> IdTreScheme::open(const SealedCiphertext& ct,
                                       const IdPrivateKey& key, const KeyUpdate& update,
                                       const ServerPublicKey& authority) const {
  const G1Point kd = key.sig + update.sig;
  return scheme_.open_with(ct, authority.g,
                           [&](const G1Point& u) { return core::counted_pair(u, kd); });
}

}  // namespace tre::idtre
