// Rivest-Shamir-Wagner time-lock puzzle [19, paper §2.1].
//
// The serverless approach the paper contrasts against. The sender, who
// knows φ(n) for n = p·q, seals a key behind t sequential modular
// squarings: b = a^(2^t) mod n is cheap for the sender (reduce 2^t mod
// φ(n)) but requires t *inherently sequential* squarings from the
// solver. Release timing is therefore relative (to solve start), machine
// dependent and CPU-consuming — experiment E4 quantifies the release-time
// error against TRE's absolute semantics.
#pragma once

#include <cstdint>

#include "bigint/bigint.h"
#include "bigint/montgomery.h"
#include "hashing/drbg.h"

namespace tre::baselines {

inline constexpr size_t kRswLimbs = 32;  // up to 2048-bit moduli
using RswInt = bigint::BigInt<kRswLimbs>;

/// Sender-side trapdoor: modulus and its factorization.
struct RswTrapdoor {
  RswInt n;
  RswInt phi;  // (p-1)(q-1)
};

struct RswPuzzle {
  RswInt n;
  RswInt a;          // random base
  std::uint64_t t;   // required sequential squarings
  Bytes sealed_key;  // key ⊕ KDF(a^(2^t) mod n)

  /// Wire format: u16 n-length || n be || u16 a-length || a be ||
  /// t (u64 be) || u16 key-length || sealed key. Used by the hybrid
  /// fallback envelope (timelock/hybrid.h) and the solver checkpoint
  /// fingerprint.
  Bytes to_bytes() const;
  /// Throws tre::Error on malformed input (truncation, trailing bytes,
  /// n or a not in minimal form or too wide, even/unit modulus, base
  /// outside [0, n), zero step count).
  static RswPuzzle from_bytes(ByteSpan bytes);

  friend bool operator==(const RswPuzzle& x, const RswPuzzle& y) {
    return x.n == y.n && x.a == y.a && x.t == y.t && x.sealed_key == y.sealed_key;
  }
};

class Rsw {
 public:
  /// Generates a fresh RSA modulus (`modulus_bits` total; use small sizes
  /// in tests, 1024+ for real measurements).
  static RswTrapdoor keygen(tre::hashing::RandomSource& rng, size_t modulus_bits);

  /// Seals `key` behind `t` squarings. Fast path via φ(n).
  static RswPuzzle seal(const RswTrapdoor& trapdoor, ByteSpan key, std::uint64_t t,
                        tre::hashing::RandomSource& rng);

  /// The intended (slow) opening: t sequential squarings.
  static Bytes solve(const RswPuzzle& puzzle);

  /// Runs at most `budget` squarings from the base; sets `*done` to true
  /// and returns the key if the puzzle finished, otherwise returns empty.
  /// Used by the precision experiment to model slower/faster machines and
  /// preemption. Each call starts over: the resumable, checkpointed solver
  /// is timelock::RswSolver.
  static Bytes solve_with_budget(const RswPuzzle& puzzle, std::uint64_t budget,
                                 bool* done);

  /// Opens the sealed key given b = a^(2^t) mod n (plain form) — the
  /// shared tail of solve() and the checkpointed timelock/ solver.
  static Bytes unseal(const RswPuzzle& puzzle, const RswInt& b);

  /// Squarings/second on this machine for `modulus_bits` — calibrates
  /// what real time a given t buys (the sender's only timing dial).
  static double measure_squarings_per_second(size_t modulus_bits,
                                             tre::hashing::RandomSource& rng);
};

}  // namespace tre::baselines
