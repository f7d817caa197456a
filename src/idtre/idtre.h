// §5.2 — Identity-based Timed Release Encryption (ID-TRE).
//
// The Chen-et-al. idea the paper reproduces: the receiver's public key is
// an identity string; the trusted authority (here the same entity as the
// time server, as in the paper's exposition) extracts the private key
// s·H1(ID) — a key update on the identity string. Encryption binds
// identity and release tag additively:
//   K_E = H1(ID) + H1(T),  K = ê(sG, K_E)^r,  U = rG
// and decryption sums the private key with the broadcast update:
//   K_D = s·H1(ID) + s·H1(T) = s·K_E,  K' = ê(U, K_D).
// K is a session value on the TRE core's seal/open path, so every core
// flavour (basic, FO, REACT) works unchanged.
//
// Key escrow is inherent (the server can decrypt everything) — the
// paper's motivation for the non-identity-based TRE. The single broadcast
// update per instant is retained.
//
// The split-authority variant separates the roles, as the paper allows
// ("in real cases, it could be a different entity"): an identity
// authority TA (secret s1, issues d_ID = s1·H1(ID)) and a time server TS
// (secret s2, broadcasts I_T = s2·H1(T)) over the common system
// generator G, with K = [ê(s1·G, H1(ID)) · ê(s2·G, H1(T))]^r. The same
// open serves it, since K' = ê(U, d_ID + I_T). The always-online TS can
// no longer decrypt anything; escrow is confined to the offline TA.
#pragma once

#include "core/tre.h"

namespace tre::idtre {

using core::KeyUpdate;
using core::Mode;
using core::SealedCiphertext;
using core::ServerKeyPair;
using core::ServerPublicKey;

/// The extracted s·H1(ID): a key update whose tag is the identity.
using IdPrivateKey = KeyUpdate;

class IdTreScheme {
 public:
  explicit IdTreScheme(std::shared_ptr<const params::GdhParams> params);

  const params::GdhParams& params() const { return scheme_.params(); }

  /// Authority setup == server keygen (one entity in the paper's §5.2).
  ServerKeyPair setup(tre::hashing::RandomSource& rng) const {
    return scheme_.server_keygen(rng);
  }

  /// A split-variant authority: its generator is the system base, so one
  /// header rG serves both pairings.
  ServerKeyPair authority_keygen(tre::hashing::RandomSource& rng) const;

  /// Private-key extraction for a user identity (requires the master
  /// secret); verify_update checks it against the authority key.
  IdPrivateKey extract(const ServerKeyPair& authority, std::string_view id) const {
    return scheme_.issue_update(authority, id);
  }

  /// Time-bound key updates are identical to TRE's.
  KeyUpdate issue_update(const ServerKeyPair& authority, std::string_view tag) const {
    return scheme_.issue_update(authority, tag);
  }
  bool verify_update(const ServerPublicKey& authority, const KeyUpdate& update) const {
    return scheme_.verify_update(authority, update);
  }

  /// One authority: K = ê(sG, H1(ID) + H1(T))^r, one pairing.
  SealedCiphertext seal(Mode mode, ByteSpan msg, std::string_view id,
                        const ServerPublicKey& authority, std::string_view tag,
                        tre::hashing::RandomSource& rng) const;

  /// Split authorities: K = [ê(s1·G, H1(ID)) · ê(s2·G, H1(T))]^r. Both
  /// must use the system generator (authority_keygen).
  SealedCiphertext seal(Mode mode, ByteSpan msg, std::string_view id,
                        const ServerPublicKey& ta, const ServerPublicKey& ts,
                        std::string_view tag, tre::hashing::RandomSource& rng) const;

  /// Either variant, any flavour: K = ê(U, d_ID + I_T). `authority` is a
  /// key whose generator heads the ciphertext (either one in the split
  /// variant); FO's re-encryption check reads it. nullopt on tampering
  /// (FO/REACT).
  std::optional<Bytes> open(const SealedCiphertext& ct, const IdPrivateKey& key,
                            const KeyUpdate& update,
                            const ServerPublicKey& authority) const;

 private:
  core::TreScheme scheme_;
};

}  // namespace tre::idtre
