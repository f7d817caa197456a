// Timed Release Encryption (TRE) — the paper's §5.1 construction with the
// §5.3 extensions, on the legacy type-1 curve.
//
// Roles and artifacts:
//   * Time server: secret s, public (G, sG) with G a server-chosen random
//     generator. Completely passive: its only output is the time-bound key
//     update I_T = s·H1(T), a BLS short signature on the time string T
//     that is self-authenticating via ê(sG, H1(T)) == ê(G, I_T).
//   * User: secret a, public (aG, a·sG) — bound to the server key so that
//     decryption provably needs the server's update.
//   * Sender: encrypts under the two public keys and a release tag T with
//     no interaction: C = ⟨rG, M ⊕ H2(ê(r·asG, H1(T)))⟩.
//   * Receiver: decrypts with K' = ê(U, I_T)^a once I_T is published.
//
// Three ciphertext flavours are provided:
//   * Basic (§5.1 verbatim): one-way / CPA-secure under BDH in the ROM.
//   * FO (Fujisaki-Okamoto, as the paper prescribes for CCA security).
//   * REACT (Okamoto-Pointcheval, the paper's stated alternative).
//
// The tag argument is an opaque byte string: a canonical time string for
// timed release (see timeserver/timespec.h) or any condition string for
// the §5.3.2 policy-lock generalization.
//
// Since the backend-generic refactor the entire scheme lives in
// core/tre_core.h as a template over a PairingBackend policy; this header
// is the type-1 instantiation (core/backend512.h) under the historical
// names. The BLS12-381 instantiation of the SAME code is bls12/tre381.h.
#pragma once

#include "core/backend512.h"
#include "core/tre_core.h"

namespace tre::core {

using Gt = pairing::Gt;

using ServerPublicKey = BasicServerPublicKey<Tre512Backend>;
using ServerKeyPair = BasicServerKeyPair<Tre512Backend>;
using UserPublicKey = BasicUserPublicKey<Tre512Backend>;
using UserKeyPair = BasicUserKeyPair<Tre512Backend>;
using KeyUpdate = BasicKeyUpdate<Tre512Backend>;
using Ciphertext = BasicCiphertext<Tre512Backend>;
using FoCiphertext = BasicFoCiphertext<Tre512Backend>;
using ReactCiphertext = BasicReactCiphertext<Tre512Backend>;
using SealedCiphertext = BasicSealedCiphertext<Tre512Backend>;
using EpochKey = BasicEpochKey<Tre512Backend>;
using TreScheme = BasicTreScheme<Tre512Backend>;

// The type-1 scheme is compiled once into tre_core (tre.cpp); every other
// translation unit links against that instantiation.
extern template class BasicTreScheme<Tre512Backend>;

// The type-1 pairings the §5 extensions compute outside the scheme's
// seal and open steps, counted on the scheme's own `core.pairings`
// counter: a product over N pairs counts N, as a two-sided check counts 2.
Gt counted_pair(const ec::G1Point& p, const ec::G1Point& q);
Gt counted_pair_product(std::span<const std::pair<ec::G1Point, ec::G1Point>> pairs);
bool counted_pairings_equal(const ec::G1Point& a1, const ec::G1Point& a2,
                            const ec::G1Point& b1, const ec::G1Point& b2);

}  // namespace tre::core
