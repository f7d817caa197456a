#include "bls/bls.h"

#include <set>

#include "pairing/pairing.h"

namespace tre::bls {

using ec::G1Point;

BlsScheme::BlsScheme(std::shared_ptr<const params::GdhParams> params)
    : params_(std::move(params)) {
  require(params_ != nullptr, "BlsScheme: null params");
}

KeyPair BlsScheme::keygen(tre::hashing::RandomSource& rng) const {
  Scalar h = params::random_scalar(*params_, rng);
  Scalar sk = params::random_scalar(*params_, rng);
  G1Point g = params_->base.mul(h);
  return KeyPair{sk, g, g.mul(sk)};
}

Signature BlsScheme::sign(const KeyPair& keys, ByteSpan msg) const {
  return Signature{ec::hash_to_g1(params_->ctx(), msg).mul(keys.sk)};
}

bool BlsScheme::verify(const G1Point& g, const G1Point& pk, ByteSpan msg,
                       const Signature& sig) const {
  if (sig.sig.is_infinity()) return false;
  return pairing::pairings_equal(pk, ec::hash_to_g1(params_->ctx(), msg), g, sig.sig);
}

Signature BlsScheme::aggregate(std::span<const SignedMessage> batch) const {
  require(!batch.empty(), "BlsScheme::aggregate: empty batch");
  G1Point sum = G1Point::infinity(params_->ctx());
  for (const auto& sm : batch) sum = sum + sm.sig.sig;
  return Signature{sum};
}

bool BlsScheme::verify_aggregate(const G1Point& g, const G1Point& pk,
                                 std::span<const std::string> msgs,
                                 const Signature& aggregate_sig) const {
  if (msgs.empty() || aggregate_sig.sig.is_infinity()) return false;
  std::set<std::string_view> distinct(msgs.begin(), msgs.end());
  if (distinct.size() != msgs.size()) return false;
  G1Point hsum = G1Point::infinity(params_->ctx());
  for (const auto& m : msgs) hsum = hsum + ec::hash_to_g1(params_->ctx(), to_bytes(m));
  return pairing::pairings_equal(pk, hsum, g, aggregate_sig.sig);
}

}  // namespace tre::bls
