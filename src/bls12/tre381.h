// The paper's TRE instantiated on BLS12-381 (type-3 pairing) — the
// layout today's deployments of this scheme (drand/tlock) use.
//
// This is the SAME generic core as core::TreScheme (core/tre_core.h):
// seal/open for all three modes, the §5.1 step-1 key check, the five
// memo caches, the batch APIs and the obs probes (under
// "core.bls381.*") are one template, bound here to the Bls381Backend
// policy. See bls12/backend381.h for the type-3 artifact-placement notes
// (updates and the user anchor in G_1, keys and ciphertext headers in
// G_2, the degenerate §5.3.4 same-secret check).
//
//   server : s, public (G = h·G_2gen, S = s·G) — like the type-1 scheme
//            the server chooses its own G_2 generator; the fixed-generator
//            drand layout is the special case G = G_2gen (see
//            threshold::BasicThresholdKey::as_server_public_key)
//   user   : a, public (A1 = a·G_1gen, A2 = a·S); the sender's
//            §5.1-step-1 check is ê(A1, S) == ê(G_1gen, A2)
//   update : I_T = s·H1(T) ∈ G_1 (49 B compressed vs the 2005 curve's
//            65 B, at a far higher security level); verify
//            ê(H1(T), S) == ê(I_T, G)
//   encrypt: K = ê(r·H1(T), A2) = ê(H1(T), A2)^r;  C = ⟨rG, M ⊕ H2(K)⟩
//   decrypt: K' = ê(a·I_T, U) = ê(I_T, U)^a
//            (r and a run the G_1 secret ladder, never a G_T power)
//
// Wire formats are the generic backend-tagged framing: points carry their
// backend-specific compressed width (G_1 49 B, G_2 97 B), so 381 bytes
// fed to a type-1 context fail cleanly in from_bytes and vice versa.
#pragma once

#include "bls12/backend381.h"

namespace tre::bls12 {

using Tre381Scheme = core::BasicTreScheme<Bls381Backend>;

using ServerPublicKey381 = core::BasicServerPublicKey<Bls381Backend>;
using ServerKey381 = core::BasicServerKeyPair<Bls381Backend>;
using UserPublicKey381 = core::BasicUserPublicKey<Bls381Backend>;
using UserKey381 = core::BasicUserKeyPair<Bls381Backend>;
using Update381 = core::BasicKeyUpdate<Bls381Backend>;
using Ciphertext381 = core::BasicCiphertext<Bls381Backend>;
using FoCiphertext381 = core::BasicFoCiphertext<Bls381Backend>;
using ReactCiphertext381 = core::BasicReactCiphertext<Bls381Backend>;
using SealedCiphertext381 = core::BasicSealedCiphertext<Bls381Backend>;
using EpochKey381 = core::BasicEpochKey<Bls381Backend>;

/// Convenience constructor: the 381 scheme over the cached validated
/// context.
inline Tre381Scheme make_tre381() { return Tre381Scheme(Bls12Ctx::get()); }

}  // namespace tre::bls12
