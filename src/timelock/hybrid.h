// Hybrid time-lock fallback envelope.
//
// The paper's TRE scheme makes release timing absolute, but a vanished
// or withholding time server strands every sealed ciphertext forever —
// the single point of failure the TLP literature's hybrid constructions
// close. A HybridEnvelope seals one fresh payload key Kp down TWO
// independent lanes:
//
//   server lane:  Kp sealed with TreScheme::seal under (user, server, tag) —
//                 opens the normal way once the epoch update I_T exists;
//   fallback lane: Kp sealed behind W sequential squarings of an RSW
//                 puzzle (baselines::Rsw + the checkpointed
//                 timelock::RswSolver) — opens after roughly
//                 W / (squarings per second) of wall-clock grinding,
//                 no server required.
//
// Both lanes recover the same Kp, so the message body (Kp-keyed stream
// cipher) opens bit-identically either way. An HMAC-SHA256 under Kp
// binds the entire transcript — both sealed lanes, nonce and body — so
// any splice of lanes from different envelopes or body tampering is
// rejected, whichever lane produced the key.
//
// On the wire the envelope leads with core::Mode::kHybrid, extending
// the SealedCiphertext mode-byte namespace (core::from_bytes points
// hybrid bytes here).
#pragma once

#include <cstdint>
#include <optional>

#include "baselines/rsw_puzzle.h"
#include "common/bytes.h"
#include "common/error.h"
#include "common/health.h"
#include "common/wire.h"
#include "core/tre_core.h"
#include "hashing/hmac.h"
#include "hashing/kdf.h"
#include "timelock/solver.h"

namespace tre::timelock {

inline constexpr size_t kPayloadKeyBytes = 32;
inline constexpr size_t kNonceBytes = 16;
inline constexpr size_t kMacBytes = 32;

namespace detail {

inline Bytes keystream(ByteSpan payload_key, ByteSpan nonce, size_t len) {
  return hashing::keystream(payload_key, nonce, len);
}

inline Bytes transcript_mac(ByteSpan payload_key, ByteSpan key_ct_bytes,
                            ByteSpan puzzle_bytes, ByteSpan nonce, ByteSpan body) {
  return hashing::hmac_sha256_concat(
      payload_key,
      {tre::to_bytes("TRE-HYBRID-MAC"), key_ct_bytes, puzzle_bytes, nonce, body});
}

}  // namespace detail

/// Sender-side dials for the fallback lane.
struct FallbackParams {
  std::uint64_t squarings;        ///< W: sequential squarings to open serverless
  size_t modulus_bits = 1024;     ///< RSW modulus size (small in tests)
};

template <class B>
struct BasicHybridEnvelope {
  core::BasicSealedCiphertext<B> key_ct;  ///< server lane: Kp under TRE
  baselines::RswPuzzle puzzle;            ///< fallback lane: Kp behind W squarings
  Bytes nonce;                            ///< kNonceBytes of per-envelope salt
  Bytes body;                             ///< msg ⊕ keystream(Kp, nonce)
  Bytes mac;                              ///< HMAC-SHA256(Kp, whole transcript)

  /// Wire: kHybrid mode byte || u16 |key_ct| || key_ct || u16 |puzzle|
  /// || puzzle || nonce || u32 |body| || body || mac.
  Bytes to_bytes() const {
    require(nonce.size() == kNonceBytes, "HybridEnvelope: bad nonce size");
    require(mac.size() == kMacBytes, "HybridEnvelope: bad mac size");
    return wire::Writer()
        .u8(static_cast<std::uint8_t>(core::Mode::kHybrid))
        .bytes16(key_ct.to_bytes())
        .bytes16(puzzle.to_bytes())
        .raw(nonce)
        .bytes32(body)
        .raw(mac)
        .take();
  }

  static BasicHybridEnvelope from_bytes(const typename B::Params& params,
                                        ByteSpan bytes) {
    wire::Reader r(bytes);
    require(r.u8() == static_cast<std::uint8_t>(core::Mode::kHybrid),
            "HybridEnvelope::from_bytes: wrong mode byte");
    ByteSpan key_ct = r.bytes16();
    ByteSpan puzzle = r.bytes16();
    ByteSpan nonce = r.raw(kNonceBytes);
    ByteSpan body = r.bytes32();
    ByteSpan mac = r.raw(kMacBytes);
    require(r.finish(), "HybridEnvelope::from_bytes: truncated or trailing bytes");
    return BasicHybridEnvelope{core::BasicSealedCiphertext<B>::from_bytes(params, key_ct),
                               baselines::RswPuzzle::from_bytes(puzzle),
                               wire::owned(nonce), wire::owned(body), wire::owned(mac)};
  }
};

/// Seals `msg` so it opens either through the server lane (epoch key for
/// `tag`) or after `fallback.squarings` sequential squarings.
/// `inner_mode` picks the TRE flavour protecting Kp (kFo/kReact give the
/// server lane CCA integrity; the envelope MAC covers both lanes either
/// way).
template <class B>
BasicHybridEnvelope<B> seal_hybrid(const core::BasicTreScheme<B>& scheme,
                                   core::Mode inner_mode, ByteSpan msg,
                                   const core::BasicUserPublicKey<B>& user,
                                   const core::BasicServerPublicKey<B>& server,
                                   std::string_view tag,
                                   const FallbackParams& fallback,
                                   tre::hashing::RandomSource& rng,
                                   core::KeyCheck check = core::KeyCheck::kVerify) {
  health::ensure_operational();
  require(inner_mode != core::Mode::kHybrid,
          "seal_hybrid: inner mode must be a base flavour");
  require(fallback.squarings >= 1, "seal_hybrid: need at least one squaring");
  Bytes payload_key = rng.bytes(kPayloadKeyBytes);
  core::BasicSealedCiphertext<B> key_ct =
      scheme.seal(inner_mode, payload_key, user, server, tag, rng, check);
  baselines::RswTrapdoor trapdoor =
      baselines::Rsw::keygen(rng, fallback.modulus_bits);
  baselines::RswPuzzle puzzle =
      baselines::Rsw::seal(trapdoor, payload_key, fallback.squarings, rng);
  Bytes nonce = rng.bytes(kNonceBytes);
  Bytes body = xor_bytes(msg, detail::keystream(payload_key, nonce, msg.size()));
  Bytes mac = detail::transcript_mac(payload_key, key_ct.to_bytes(),
                                     puzzle.to_bytes(), nonce, body);
  return BasicHybridEnvelope<B>{std::move(key_ct), std::move(puzzle), std::move(nonce),
                                std::move(body), std::move(mac)};
}

/// Shared tail of both lanes: authenticates the transcript under the
/// recovered payload key, then strips the stream cipher. nullopt on any
/// mismatch (wrong key, spliced lanes, tampered body) — fail closed.
template <class B>
std::optional<Bytes> open_hybrid_with_key(const BasicHybridEnvelope<B>& env,
                                          ByteSpan payload_key) {
  if (payload_key.size() != kPayloadKeyBytes) return std::nullopt;
  Bytes expect = detail::transcript_mac(payload_key, env.key_ct.to_bytes(),
                                        env.puzzle.to_bytes(), env.nonce, env.body);
  if (!ct_equal(expect, env.mac)) return std::nullopt;
  return xor_bytes(env.body,
                   detail::keystream(payload_key, env.nonce, env.body.size()));
}

/// Server lane: open with the user's secret and the epoch update, like
/// TreScheme::open.
template <class B>
std::optional<Bytes> open_hybrid(const core::BasicTreScheme<B>& scheme,
                                 const BasicHybridEnvelope<B>& env,
                                 const core::Scalar& a,
                                 const core::BasicKeyUpdate<B>& update,
                                 const core::BasicServerPublicKey<B>& server) {
  std::optional<Bytes> payload_key = scheme.open(env.key_ct, a, update, server);
  if (!payload_key) return std::nullopt;
  return open_hybrid_with_key(env, *payload_key);
}

/// Fallback lane: grind the puzzle to completion with the checkpointed
/// solver and open. For long solves drive RswSolver directly (advance /
/// checkpoint / restore) and finish with open_hybrid_with_key.
template <class B>
std::optional<Bytes> open_hybrid_via_puzzle(const BasicHybridEnvelope<B>& env,
                                            SolverOptions opts = {}) {
  RswSolver solver(env.puzzle, opts);
  while (!solver.done()) solver.advance(env.puzzle.t);
  return open_hybrid_with_key(env, solver.key());
}

}  // namespace tre::timelock
