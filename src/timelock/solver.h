// Checkpointed, resumable, self-validating RSW solver.
//
// Promotes baselines::Rsw from an experiment baseline into the
// production fallback lane of the hybrid envelope (timelock/hybrid.h):
// when the time server vanishes or withholds an update, the receiver can
// still open by grinding the puzzle's t sequential squarings — possibly
// over days, across process restarts, on hardware that flips bits.
// Three hardening measures make that practical:
//
//  1. **Checkpoints.** `checkpoint()` serializes the full solver state
//     (current residue, step count, rolling replay anchor) with a
//     puzzle fingerprint and an integrity hash; `restore()` resumes
//     from those bytes.
//  2. **Replay verification on resume.** Alongside the live residue the
//     solver keeps a *rolling anchor* — the residue from at most
//     `kReplayWindow` steps ago. `restore()` re-squares the anchor
//     forward and compares against the checkpointed head, so a
//     corrupted (or maliciously edited) checkpoint is rejected instead
//     of silently poisoning days of work.
//  3. **A parallel-verifiable check lane**, in the idiom of the LCS35
//     solvers' square.c/validate.c pair: the chain is computed modulo
//     N = n·c for a fixed 61-bit Mersenne prime c = 2^61 - 1. At any
//     step i the residue reduced mod c must equal a^(2^i) mod c, which
//     is *directly* computable in O(log i) word operations via
//     Fermat's little theorem (reduce the exponent 2^i mod c-1) — a
//     compute error in the main chain is detected with overwhelming
//     probability at the next validate() for ~6% extra work per
//     squaring (33 vs 32 limbs).
//
// `key()` validates before unsealing, so a corrupted chain yields a
// typed error, never a wrong key.
#pragma once

#include <cstdint>
#include <optional>

#include "baselines/rsw_puzzle.h"
#include "bigint/bigint.h"
#include "bigint/montgomery.h"
#include "common/bytes.h"

namespace tre::timelock {

/// One limb wider than the puzzle modulus: the work modulus is n·c with
/// c a 61-bit prime.
inline constexpr size_t kWorkLimbs = baselines::kRswLimbs + 1;
using WorkInt = bigint::BigInt<kWorkLimbs>;

/// The check-lane prime c = 2^61 - 1 (Mersenne, odd, so n·c stays a
/// valid Montgomery modulus).
inline constexpr std::uint64_t kCheckPrime = (std::uint64_t{1} << 61) - 1;

/// Steps between the rolling replay anchor updates; also the maximum
/// replay work restore() performs, and the largest anchor gap a
/// checkpoint may carry.
inline constexpr std::uint64_t kReplayWindow = 256;

class RswSolver {
 public:
  /// Starts a fresh solve of `puzzle` (state: 0 steps done).
  explicit RswSolver(const baselines::RswPuzzle& puzzle);

  /// Resumes from checkpoint bytes. Throws tre::Error when the bytes are
  /// malformed, the integrity hash or puzzle fingerprint mismatches, or
  /// the anchor replay / check lane disagrees with the checkpointed head
  /// (i.e. the checkpoint is corrupt).
  static RswSolver restore(const baselines::RswPuzzle& puzzle, ByteSpan checkpoint);

  /// Runs at most `budget` squarings; returns how many were performed
  /// (0 once done).
  std::uint64_t advance(std::uint64_t budget);

  bool done() const { return steps_ == puzzle_.t; }
  std::uint64_t steps_done() const { return steps_; }
  std::uint64_t total_steps() const { return puzzle_.t; }

  /// The recovered payload key. Requires done(); runs the check lane
  /// first and throws tre::Error if the chain fails validation.
  Bytes key() const;

  /// Serializes the solver state: magic || fingerprint(puzzle) || steps
  /// || residue || anchor steps || anchor residue || SHA-256 tag.
  Bytes checkpoint() const;

  /// Check-lane compare: head residue mod c vs the directly computed
  /// a^(2^steps) mod c. False means the main chain has gone wrong.
  bool validate() const;

  /// Flips one bit of the head residue — test hook proving validate()
  /// and the restore() replay actually catch compute corruption.
  void corrupt_state_for_testing();

 private:
  RswSolver(const baselines::RswPuzzle& puzzle, WorkInt x_plain, std::uint64_t steps,
            WorkInt anchor_plain, std::uint64_t anchor_steps);

  baselines::RswPuzzle puzzle_;
  bigint::MontCtx<kWorkLimbs> mont_;  // modulus n·c
  WorkInt x_;                         // a^(2^steps) mod n·c, Montgomery form
  std::uint64_t steps_ = 0;
  WorkInt anchor_;  // residue at anchor_steps_, Montgomery form
  std::uint64_t anchor_steps_ = 0;
};

}  // namespace tre::timelock
