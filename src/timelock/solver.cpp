#include "timelock/solver.h"

#include <algorithm>
#include <string_view>

#include "common/error.h"
#include "common/health.h"
#include "common/wire.h"
#include "hashing/sha256.h"

namespace tre::timelock {

namespace {

constexpr std::string_view kMagic = "TRECKPT1";
constexpr size_t kResidueBytes = 8 * kWorkLimbs;
constexpr size_t kHashBytes = 32;

// 64-bit modular helpers for the check lane (modulus fits a word, so
// one __int128 product per multiply — the same extension bigint/ uses).
std::uint64_t mulmod64(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  return static_cast<std::uint64_t>((static_cast<unsigned __int128>(a) * b) % m);
}

std::uint64_t powmod64(std::uint64_t base, std::uint64_t exp, std::uint64_t m) {
  std::uint64_t acc = 1 % m;
  base %= m;
  while (exp != 0) {
    if (exp & 1) acc = mulmod64(acc, base, m);
    base = mulmod64(base, base, m);
    exp >>= 1;
  }
  return acc;
}

/// a^(2^steps) mod c, computed directly: by Fermat (c prime, c ∤ a) the
/// exponent reduces mod c-1, and 2^steps mod (c-1) is one word-sized
/// square-and-multiply chain — O(log steps) work total, independent of
/// the main chain.
std::uint64_t check_lane_expected(const baselines::RswPuzzle& puzzle,
                                  std::uint64_t steps) {
  WorkInt c = WorkInt::from_u64(kCheckPrime);
  std::uint64_t a_c = bigint::mod(puzzle.a.resized<kWorkLimbs>(), c).w[0];
  if (a_c == 0) return 0;  // a ≡ 0 (mod c): the whole chain is 0 mod c
  std::uint64_t e = powmod64(2, steps, kCheckPrime - 1);
  // (c-1) | 2^steps cannot happen (c-1 has the odd factor 2^60 - 1),
  // so e = 0 only for steps where 2^steps ≡ 0, i.e. never; keep the
  // Fermat fallback anyway for defensive completeness.
  if (e == 0) return 1;
  return powmod64(a_c, e, kCheckPrime);
}

WorkInt work_modulus(const baselines::RswPuzzle& puzzle) {
  return bigint::mul_wide(puzzle.n, baselines::RswInt::from_u64(kCheckPrime))
      .resized<kWorkLimbs>();
}

}  // namespace

RswSolver::RswSolver(const baselines::RswPuzzle& puzzle, SolverOptions opts)
    : RswSolver(puzzle, opts, puzzle.a.resized<kWorkLimbs>(), 0,
                puzzle.a.resized<kWorkLimbs>(), 0) {}

RswSolver::RswSolver(const baselines::RswPuzzle& puzzle, SolverOptions opts,
                     WorkInt x_plain, std::uint64_t steps, WorkInt anchor_plain,
                     std::uint64_t anchor_steps)
    : puzzle_(puzzle), opts_(opts), mont_(work_modulus(puzzle)) {
  require(opts_.replay_window >= 1, "RswSolver: replay_window must be positive");
  require(steps <= puzzle_.t, "RswSolver: state past the puzzle's step count");
  require(anchor_steps <= steps, "RswSolver: anchor ahead of head");
  x_ = mont_.to_mont(x_plain);
  steps_ = steps;
  anchor_ = mont_.to_mont(anchor_plain);
  anchor_steps_ = anchor_steps;
}

std::uint64_t RswSolver::advance(std::uint64_t budget) {
  std::uint64_t todo = std::min(budget, puzzle_.t - steps_);
  for (std::uint64_t i = 0; i < todo; ++i) {
    x_ = mont_.sqr(x_);
    ++steps_;
    if (steps_ - anchor_steps_ >= opts_.replay_window && steps_ < puzzle_.t) {
      anchor_ = x_;
      anchor_steps_ = steps_;
    }
  }
  return todo;
}

bool RswSolver::validate() const {
  WorkInt head = mont_.from_mont(x_);
  std::uint64_t got =
      bigint::mod(head, WorkInt::from_u64(kCheckPrime)).w[0];
  return got == check_lane_expected(puzzle_, steps_);
}

Bytes RswSolver::key() const {
  health::ensure_operational();
  require(done(), "RswSolver::key: puzzle not finished");
  if (opts_.validate_lane)
    require(validate(),
            "RswSolver::key: check lane mismatch — the squaring chain is corrupt");
  // n | n·c, so the head reduced mod n is exactly a^(2^t) mod n.
  WorkInt head = mont_.from_mont(x_);
  baselines::RswInt b =
      bigint::mod_wide(head, puzzle_.n);
  return baselines::Rsw::unseal(puzzle_, b);
}

// Wire: magic || puzzle fingerprint || steps || head x || anchor steps ||
// anchor x || integrity hash of everything before it.
Bytes RswSolver::checkpoint() const {
  Bytes state = wire::Writer()
                    .raw(kMagic)
                    .raw(hashing::sha256(puzzle_.to_bytes()))
                    .u64(steps_)
                    .raw(mont_.from_mont(x_).to_bytes_be(kResidueBytes))
                    .u64(anchor_steps_)
                    .raw(mont_.from_mont(anchor_).to_bytes_be(kResidueBytes))
                    .take();
  return concat({state, hashing::sha256(state)});
}

RswSolver RswSolver::restore(const baselines::RswPuzzle& puzzle, ByteSpan checkpoint,
                             SolverOptions opts) {
  wire::Reader r(checkpoint);
  ByteSpan magic = r.raw(kMagic.size());
  ByteSpan fp = r.raw(kHashBytes);
  std::uint64_t steps = r.u64();
  ByteSpan head_be = r.raw(kResidueBytes);
  std::uint64_t anchor_steps = r.u64();
  ByteSpan anchor_be = r.raw(kResidueBytes);
  ByteSpan tag = r.raw(kHashBytes);
  require(r.finish(), "RswSolver::restore: wrong checkpoint size");
  require(std::equal(magic.begin(), magic.end(), kMagic.begin()),
          "RswSolver::restore: bad magic");

  Bytes expect_tag = hashing::sha256(checkpoint.first(checkpoint.size() - kHashBytes));
  require(std::equal(tag.begin(), tag.end(), expect_tag.begin()),
          "RswSolver::restore: integrity hash mismatch");
  Bytes expect_fp = hashing::sha256(puzzle.to_bytes());
  require(std::equal(fp.begin(), fp.end(), expect_fp.begin()),
          "RswSolver::restore: checkpoint is for a different puzzle");

  require(steps <= puzzle.t, "RswSolver::restore: steps past the puzzle");
  require(anchor_steps <= steps, "RswSolver::restore: anchor ahead of head");
  require(steps - anchor_steps <= opts.replay_window,
          "RswSolver::restore: anchor gap exceeds the replay window");

  WorkInt head = WorkInt::from_bytes_be(head_be);
  WorkInt anchor = WorkInt::from_bytes_be(anchor_be);
  WorkInt n_c = work_modulus(puzzle);
  require(head < n_c && anchor < n_c, "RswSolver::restore: residue out of range");

  // Replay the anchor forward and compare with the checkpointed head:
  // at most replay_window squarings re-verify the chain's recent tail.
  bigint::MontCtx<kWorkLimbs> mont(n_c);
  WorkInt replay = mont.to_mont(anchor);
  for (std::uint64_t i = anchor_steps; i < steps; ++i) replay = mont.sqr(replay);
  require(mont.from_mont(replay) == head,
          "RswSolver::restore: anchor replay mismatch — corrupt checkpoint");

  RswSolver solver(puzzle, opts, head, steps, anchor, anchor_steps);
  if (opts.validate_lane)
    require(solver.validate(),
            "RswSolver::restore: check lane mismatch — corrupt checkpoint");
  return solver;
}

void RswSolver::corrupt_state_for_testing() { x_.w[0] ^= 1; }

}  // namespace tre::timelock
