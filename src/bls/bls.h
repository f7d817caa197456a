// Boneh-Lynn-Shacham short signatures over the GDH group [5].
//
// The paper's §5.3.1 observation made first-class: a time-bound key
// update IS the BLS signature s·H1(T), self-authenticating against the
// public key (G, sG). This module exposes the signature scheme on its
// own, plus aggregation: n signatures (same signer, distinct messages)
// compress to one group element, verified with one pairing product.
// Randomized batch verification of key updates lives in the TRE core
// (TreScheme::verify_updates_batch): a receiver catching up on an archive
// of n updates validates them with one RLC pairing check instead of n,
// and a failed batch is bisected to the exact forged updates.
#pragma once

#include <span>
#include <string>

#include "ec/curve.h"
#include "hashing/drbg.h"
#include "params/params.h"

namespace tre::bls {

using Scalar = field::FpInt;

struct KeyPair {
  Scalar sk;
  ec::G1Point g;   // signer-chosen generator
  ec::G1Point pk;  // sk·g
};

struct Signature {
  ec::G1Point sig;  // sk·H1(msg)
};

/// A (message, signature) pair for aggregate/batch APIs.
struct SignedMessage {
  std::string msg;
  Signature sig;
};

class BlsScheme {
 public:
  explicit BlsScheme(std::shared_ptr<const params::GdhParams> params);

  const params::GdhParams& params() const { return *params_; }

  KeyPair keygen(tre::hashing::RandomSource& rng) const;

  Signature sign(const KeyPair& keys, ByteSpan msg) const;

  /// ê(pk, H1(m)) == ê(g, sig).
  bool verify(const ec::G1Point& g, const ec::G1Point& pk, ByteSpan msg,
              const Signature& sig) const;

  /// Σ sig_i: one group element regardless of n.
  Signature aggregate(std::span<const SignedMessage> batch) const;

  /// Verifies an aggregate of the same signer over distinct messages:
  /// ê(g, Σ sig_i) == ê(pk, Σ H1(m_i)). Messages must be distinct
  /// (rogue-aggregation over repeated messages is rejected).
  bool verify_aggregate(const ec::G1Point& g, const ec::G1Point& pk,
                        std::span<const std::string> msgs,
                        const Signature& aggregate_sig) const;

 private:
  std::shared_ptr<const params::GdhParams> params_;
};

}  // namespace tre::bls
