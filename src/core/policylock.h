// §5.3.2 — generalization to a policy lock.
//
// The time server generalizes to a *witness* who signs arbitrary
// condition strings ("It is an emergency", "Task X completed") instead of
// time strings; the cryptography is identical, so this wrapper mostly
// provides vocabulary plus one genuine extension: locking a message under
// the CONJUNCTION of several conditions with a single witness, using the
// additive trick from §5.2 — the decryption key for {C_1..C_m} is
// Σ s·H1(C_j), the sum of the individual witness statements.
#pragma once

#include <span>
#include <vector>

#include "core/tre.h"

namespace tre::core {

/// A signed condition statement s·H1(C) — same object as a KeyUpdate.
using WitnessStatement = KeyUpdate;

/// Disjunctive ciphertext: ⟨U, {(C_j, X ⊕ H2'(K_j))}, M ⊕ G(X)⟩.
struct AnyCiphertext {
  ec::G1Point u;                                      // r·G
  std::vector<std::pair<std::string, Bytes>> wraps;   // condition -> wrapped X
  Bytes body;                                         // M ⊕ G(X)

  Bytes to_bytes() const;
  static AnyCiphertext from_bytes(const params::GdhParams& params, ByteSpan bytes);
};

class PolicyLock {
 public:
  explicit PolicyLock(std::shared_ptr<const params::GdhParams> params);

  const TreScheme& scheme() const { return scheme_; }

  /// Witness-side: attest that condition `c` now holds.
  WitnessStatement attest(const ServerKeyPair& witness, std::string_view c) const;

  /// Anyone: check a statement against the witness public key.
  bool verify_statement(const ServerPublicKey& witness,
                        const WitnessStatement& st) const;

  /// Locks msg under a single condition: a basic-flavour TreScheme seal.
  Ciphertext lock(ByteSpan msg, const UserPublicKey& user,
                  const ServerPublicKey& witness, std::string_view condition,
                  tre::hashing::RandomSource& rng) const;

  /// Opens a single-condition lock through TreScheme::open, which takes
  /// the witness key with the statement.
  Bytes unlock(const Ciphertext& ct, const Scalar& a, const WitnessStatement& st,
               const ServerPublicKey& witness) const;

  /// Locks msg so that *all* conditions must be attested: a basic seal
  /// with K = ê(asG, Σ_j H1(C_j))^r.
  Ciphertext lock_all(ByteSpan msg, const UserPublicKey& user,
                      const ServerPublicKey& witness,
                      std::span<const std::string> conditions,
                      tre::hashing::RandomSource& rng) const;

  /// Needs one statement per condition (any order); the statements sum to
  /// s·Σ H1(C_j), and K = ê(U, Σ s·H1(C_j))^a. Throws if the statement
  /// set does not match.
  Bytes unlock_all(const Ciphertext& ct, const Scalar& a,
                   std::span<const std::string> conditions,
                   std::span<const WitnessStatement> statements,
                   const ServerPublicKey& witness) const;

  /// Disjunction ("any-of") lock: a random session key X is wrapped once
  /// per condition (K_j = ê(r·asG, H1(C_j)) with shared randomness r);
  /// ANY single attested condition unwraps X and hence the message. This
  /// is the engine behind missing-update resilience (paper §6 future
  /// work; see timeserver/resilient.h).
  AnyCiphertext lock_any(ByteSpan msg, const UserPublicKey& user,
                         const ServerPublicKey& witness,
                         std::span<const std::string> conditions,
                         tre::hashing::RandomSource& rng) const;

  /// Opens with ONE statement whose condition appears in the ciphertext.
  /// Throws if the statement's condition is not among the wraps.
  Bytes unlock_any(const AnyCiphertext& ct, const Scalar& a,
                   const WitnessStatement& st) const;

 private:
  ec::G1Point sum_of_hashes(std::span<const std::string> conditions) const;

  TreScheme scheme_;
};

}  // namespace tre::core
