#include "baselines/hybrid.h"

#include "hashing/kdf.h"

namespace tre::baselines {

using core::Gt;
using core::Scalar;
using ec::G1Point;

Bytes HybridCiphertext::to_bytes() const {
  return wire::Writer()
      .raw(c_pke.to_bytes_compressed())
      .raw(c_ibe.to_bytes_compressed())
      .bytes16(body)
      .take();
}

HybridCiphertext HybridCiphertext::from_bytes(const params::GdhParams& params,
                                              ByteSpan bytes) {
  wire::Reader r(bytes);
  HybridCiphertext ct;
  ct.c_pke = core::read_gh<core::Tre512Backend>(params, r);
  ct.c_ibe = core::read_gh<core::Tre512Backend>(params, r);
  ct.body = wire::owned(r.bytes16());
  require(r.finish(), "HybridCiphertext: truncated or trailing bytes");
  return ct;
}

HybridTre::HybridTre(std::shared_ptr<const params::GdhParams> params)
    : ibe_(std::move(params)) {}

PkeKeyPair HybridTre::pke_keygen(tre::hashing::RandomSource& rng) const {
  Scalar b = params::random_scalar(params(), rng);
  return PkeKeyPair{b, params().base.mul(b)};
}

Bytes HybridTre::dem_key(const G1Point& k1_point, const Gt& k2) const {
  // K1 ⊕ K2 fed to the DEM, per the footnote: derive fixed sub-keys first.
  Bytes k1 = hashing::oracle_bytes("HYB-K1", k1_point.to_bytes_compressed(), 32);
  Bytes k2b = hashing::oracle_bytes("HYB-K2", k2.to_bytes(), 32);
  return xor_bytes(k1, k2b);
}

HybridCiphertext HybridTre::encrypt(ByteSpan msg, const PkeKeyPair& receiver_pub,
                                    const core::ServerPublicKey& time_server,
                                    std::string_view tag,
                                    tre::hashing::RandomSource& rng) const {
  // PKE share: ElGamal KEM under the receiver key.
  Scalar x = params::random_scalar(params(), rng);
  G1Point c_pke = params().base.mul(x);
  G1Point k1_point = receiver_pub.bg.mul(x);

  // IBE share to identity T under the time server's master key.
  Scalar r = params::random_scalar(params(), rng);
  G1Point c_ibe = time_server.g.mul(r);
  Gt k2 = pairing::pair(time_server.sg, ec::hash_to_g1(params().ctx(), to_bytes(tag)))
              .pow(r);

  Bytes key = dem_key(k1_point, k2);
  Bytes stream = hashing::keystream(key, to_bytes(tag), msg.size());
  return HybridCiphertext{c_pke, c_ibe, xor_bytes(msg, stream)};
}

Bytes HybridTre::decrypt(const HybridCiphertext& ct, const Scalar& b,
                         const core::KeyUpdate& update) const {
  G1Point k1_point = ct.c_pke.mul(b);
  Gt k2 = pairing::pair(ct.c_ibe, update.sig);
  Bytes key = dem_key(k1_point, k2);
  Bytes stream = hashing::keystream(key, to_bytes(update.tag), ct.body.size());
  return xor_bytes(ct.body, stream);
}

}  // namespace tre::baselines
