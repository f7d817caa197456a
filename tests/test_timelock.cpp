// The hybrid time-lock fallback lane: resumable RSW solving with
// checkpoints, replay verification and the mod-c check lane, plus the
// HybridEnvelope that opens bit-identically through either the epoch-key
// path or the puzzle path, on both backends.
#include <gtest/gtest.h>

#include "bls12/tre381.h"
#include "core/tre.h"
#include "hashing/drbg.h"
#include "params/params.h"
#include "timelock/hybrid.h"
#include "timelock/solver.h"

namespace tre::timelock {
namespace {

using baselines::Rsw;
using baselines::RswPuzzle;
using baselines::RswTrapdoor;

constexpr size_t kTestModulusBits = 128;  // tiny modulus: tests, not security
constexpr std::uint64_t kTestSquarings = 600;

RswPuzzle make_puzzle(std::uint64_t t = kTestSquarings,
                      std::string_view seed = "timelock-tests") {
  hashing::HmacDrbg rng(to_bytes(seed));
  RswTrapdoor td = Rsw::keygen(rng, kTestModulusBits);
  Bytes key = to_bytes("0123456789abcdef0123456789abcdef");  // 32 bytes
  return Rsw::seal(td, key, t, rng);
}

// --- One-shot solve_with_budget ---------------------------------------------

TEST(RswResume, OneShotOverloadStillRestarts) {
  RswPuzzle puzzle = make_puzzle();
  bool done = true;
  Bytes out = Rsw::solve_with_budget(puzzle, puzzle.t - 1, &done);
  EXPECT_FALSE(done);
  EXPECT_TRUE(out.empty());
  out = Rsw::solve_with_budget(puzzle, puzzle.t, &done);
  EXPECT_TRUE(done);
  EXPECT_EQ(out, Rsw::solve(puzzle));
}

// --- Puzzle wire format ------------------------------------------------------

TEST(RswWire, RoundTrip) {
  RswPuzzle puzzle = make_puzzle();
  Bytes wire = puzzle.to_bytes();
  RswPuzzle back = RswPuzzle::from_bytes(wire);
  EXPECT_TRUE(back == puzzle);
}

TEST(RswWire, GarbageCorpusNeverParses) {
  RswPuzzle puzzle = make_puzzle();
  Bytes wire = puzzle.to_bytes();
  EXPECT_FALSE(wire::try_parse<RswPuzzle>(Bytes{}).has_value());
  Bytes truncated(wire.begin(), wire.end() - 1);
  EXPECT_FALSE(wire::try_parse<RswPuzzle>(truncated).has_value());
  Bytes trailing = wire;
  trailing.push_back(0);
  EXPECT_FALSE(wire::try_parse<RswPuzzle>(trailing).has_value());
  // An even modulus must be rejected (Montgomery precondition).
  Bytes even = wire;
  even[2 + (wire[0] << 8 | wire[1]) - 1] &= 0xfe;  // clear n's low bit
  EXPECT_FALSE(wire::try_parse<RswPuzzle>(even).has_value());
}

// Adds one to the be16 length field at `at`.
void bump_u16(Bytes& wire, size_t at) {
  const size_t v = (size_t{wire[at]} << 8 | wire[at + 1]) + 1;
  wire[at] = static_cast<std::uint8_t>(v >> 8);
  wire[at + 1] = static_cast<std::uint8_t>(v & 0xff);
}

// The same integer field, one byte longer: a zero in front of the value
// of the u16-length-prefixed field at `at`.
Bytes pad_field(Bytes wire, size_t at) {
  bump_u16(wire, at);
  wire.insert(wire.begin() + static_cast<long>(at + 2), 0);
  return wire;
}

TEST(RswWire, NonMinimalIntegersRejected) {
  // n and a each have one encoding, the minimal big-endian one; a leading
  // zero would be a second wire image of the same puzzle.
  Bytes wire = make_puzzle().to_bytes();
  const size_t a_at = 2 + (size_t{wire[0]} << 8 | wire[1]);
  EXPECT_THROW(RswPuzzle::from_bytes(pad_field(wire, 0)), Error);
  EXPECT_THROW(RswPuzzle::from_bytes(pad_field(wire, a_at)), Error);
}

// --- Checkpointed solver -----------------------------------------------------

TEST(Solver, MatchesBaselineSolve) {
  RswPuzzle puzzle = make_puzzle();
  RswSolver solver(puzzle);
  while (!solver.done()) solver.advance(100);
  EXPECT_TRUE(solver.validate());
  EXPECT_EQ(solver.key(), Rsw::solve(puzzle));
}

TEST(Solver, KeyBeforeDoneThrows) {
  RswPuzzle puzzle = make_puzzle();
  RswSolver solver(puzzle);
  solver.advance(1);
  EXPECT_THROW(solver.key(), Error);
}

TEST(Solver, ResumeAfterKillMatchesStraightThrough) {
  RswPuzzle puzzle = make_puzzle();

  RswSolver straight(puzzle);
  while (!straight.done()) straight.advance(1000);
  Bytes expected = straight.key();

  // Simulate a kill at an arbitrary point: checkpoint, drop the solver,
  // restore in a "new process", finish.
  RswSolver first(puzzle);
  first.advance(237);
  Bytes ckpt = first.checkpoint();

  RswSolver resumed = RswSolver::restore(puzzle, ckpt);
  EXPECT_EQ(resumed.steps_done(), 237u);
  while (!resumed.done()) resumed.advance(101);
  EXPECT_EQ(resumed.key(), expected);
}

TEST(Solver, CheckpointEveryStepStillConsistent) {
  RswPuzzle puzzle = make_puzzle(40);
  RswSolver solver(puzzle);
  Bytes ckpt = solver.checkpoint();
  while (!solver.done()) {
    RswSolver restored = RswSolver::restore(puzzle, ckpt);
    ASSERT_EQ(restored.steps_done(), solver.steps_done());
    solver.advance(1);
    ckpt = solver.checkpoint();
  }
  EXPECT_EQ(RswSolver::restore(puzzle, ckpt).key(), Rsw::solve(puzzle));
}

TEST(Solver, RestoreRejectsBitFlips) {
  RswPuzzle puzzle = make_puzzle();
  RswSolver solver(puzzle);
  solver.advance(300);
  Bytes ckpt = solver.checkpoint();
  // Any single corrupted byte must be rejected (integrity tag first,
  // replay/check-lane behind it). Probe a spread of positions.
  for (size_t pos = 0; pos < ckpt.size(); pos += 37) {
    Bytes bad = ckpt;
    bad[pos] ^= 0x40;
    EXPECT_THROW(RswSolver::restore(puzzle, bad), Error) << "pos=" << pos;
  }
}

TEST(Solver, RestoreRejectsWrongPuzzle) {
  RswPuzzle puzzle = make_puzzle();
  RswPuzzle other = make_puzzle(kTestSquarings, "different-seed");
  RswSolver solver(puzzle);
  solver.advance(50);
  EXPECT_THROW(RswSolver::restore(other, solver.checkpoint()), Error);
}

TEST(Solver, CheckLaneCatchesComputeCorruption) {
  RswPuzzle puzzle = make_puzzle();
  RswSolver solver(puzzle);
  solver.advance(500);
  EXPECT_TRUE(solver.validate());
  solver.corrupt_state_for_testing();
  EXPECT_FALSE(solver.validate());
  while (!solver.done()) solver.advance(1000);
  EXPECT_THROW(solver.key(), Error);  // refuses to unseal a corrupt chain
}

TEST(Solver, ReplayCatchesCorruptionEvenWithLaneDisabled) {
  RswPuzzle puzzle = make_puzzle();
  RswSolver solver(puzzle);
  solver.advance(400);
  solver.corrupt_state_for_testing();
  // The corrupted head no longer matches the anchor replay, which restore
  // checks before the check lane runs.
  try {
    RswSolver::restore(puzzle, solver.checkpoint());
    FAIL() << "a corrupt checkpoint restored";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("anchor replay mismatch"), std::string::npos)
        << e.what();
  }
}

// --- Hybrid envelope ---------------------------------------------------------

class Hybrid512 : public ::testing::Test {
 protected:
  Hybrid512()
      : scheme_(params::load("tre-toy-96")),
        rng_(to_bytes("hybrid-512")),
        server_(scheme_.server_keygen(rng_)),
        user_(scheme_.user_keygen(server_.pub, rng_)),
        update_(scheme_.issue_update(server_, "T")) {}

  FallbackParams fallback() const {
    return FallbackParams{kTestSquarings, kTestModulusBits};
  }

  core::TreScheme scheme_;
  hashing::HmacDrbg rng_;
  core::ServerKeyPair server_;
  core::UserKeyPair user_;
  core::KeyUpdate update_;
};

TEST_F(Hybrid512, BothPathsOpenBitIdentically) {
  Bytes msg = to_bytes("open via server OR via squarings");
  for (core::Mode inner : {core::Mode::kBasic, core::Mode::kFo, core::Mode::kReact}) {
    auto env = seal_hybrid(scheme_, inner, msg, user_.pub, server_.pub, "T",
                           fallback(), rng_);
    auto via_server = open_hybrid(scheme_, env, user_.a, update_, server_.pub);
    ASSERT_TRUE(via_server.has_value()) << core::mode_name(inner);
    EXPECT_EQ(*via_server, msg);

    auto via_puzzle = open_hybrid_via_puzzle(env);
    ASSERT_TRUE(via_puzzle.has_value()) << core::mode_name(inner);
    EXPECT_EQ(*via_puzzle, *via_server);
  }
}

TEST_F(Hybrid512, WireRoundTripAndModeByte) {
  Bytes msg = to_bytes("wire");
  auto env = seal_hybrid(scheme_, core::Mode::kFo, msg, user_.pub, server_.pub, "T",
                         fallback(), rng_);
  Bytes wire = env.to_bytes();
  EXPECT_EQ(wire[0], static_cast<std::uint8_t>(core::Mode::kHybrid));
  // core's SealedCiphertext parser redirects hybrid bytes here.
  EXPECT_THROW(core::SealedCiphertext::from_bytes(scheme_.params(), wire), Error);

  auto back = BasicHybridEnvelope<core::Tre512Backend>::from_bytes(
      scheme_.params(), wire);
  auto out = open_hybrid(scheme_, back, user_.a, update_, server_.pub);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, msg);
}

TEST_F(Hybrid512, TamperFailsClosedOnBothPaths) {
  Bytes msg = to_bytes("tamper target");
  auto env = seal_hybrid(scheme_, core::Mode::kFo, msg, user_.pub, server_.pub, "T",
                         fallback(), rng_);
  auto tampered = env;
  tampered.body[0] ^= 1;
  EXPECT_FALSE(open_hybrid(scheme_, tampered, user_.a, update_, server_.pub));
  EXPECT_FALSE(open_hybrid_via_puzzle(tampered));

  // Splicing the puzzle lane from a different envelope breaks the MAC
  // binding even though each lane is individually well-formed.
  auto env2 = seal_hybrid(scheme_, core::Mode::kFo, msg, user_.pub, server_.pub,
                          "T", fallback(), rng_);
  auto spliced = env;
  spliced.puzzle = env2.puzzle;
  EXPECT_FALSE(open_hybrid(scheme_, spliced, user_.a, update_, server_.pub));
}

TEST_F(Hybrid512, WrongEpochKeyFailsClosed) {
  Bytes msg = to_bytes("wrong epoch");
  auto env = seal_hybrid(scheme_, core::Mode::kFo, msg, user_.pub, server_.pub, "T",
                         fallback(), rng_);
  auto wrong_update = scheme_.issue_update(server_, "T+1");
  EXPECT_FALSE(open_hybrid(scheme_, env, user_.a, wrong_update, server_.pub));
}

TEST_F(Hybrid512, GarbageWireNeverParses) {
  Bytes msg = to_bytes("garbage");
  auto env = seal_hybrid(scheme_, core::Mode::kReact, msg, user_.pub, server_.pub,
                         "T", fallback(), rng_);
  Bytes wire = env.to_bytes();
  using Envelope = BasicHybridEnvelope<core::Tre512Backend>;
  EXPECT_FALSE(wire::try_parse<Envelope>(scheme_.params(), Bytes{}).has_value());
  Bytes wrong_mode = wire;
  wrong_mode[0] = 1;
  EXPECT_FALSE(wire::try_parse<Envelope>(scheme_.params(), wrong_mode).has_value());
  Bytes truncated(wire.begin(), wire.end() - 1);
  EXPECT_FALSE(wire::try_parse<Envelope>(scheme_.params(), truncated).has_value());
  Bytes trailing = wire;
  trailing.push_back(0);
  EXPECT_FALSE(wire::try_parse<Envelope>(scheme_.params(), trailing).has_value());
}

TEST_F(Hybrid512, NonMinimalPuzzleIntegersRejected) {
  // The envelope MAC covers the puzzle's encoding, so a second encoding
  // of n or a must not reach either lane.
  auto env = seal_hybrid(scheme_, core::Mode::kFo, to_bytes("one wire image"),
                         user_.pub, server_.pub, "T", fallback(), rng_);
  Bytes wire = env.to_bytes();
  const size_t pz_len_at = 3 + (size_t{wire[1]} << 8 | wire[2]);
  const size_t n_at = pz_len_at + 2;
  const size_t a_at = n_at + 2 + (size_t{wire[n_at]} << 8 | wire[n_at + 1]);
  using Envelope = BasicHybridEnvelope<core::Tre512Backend>;
  for (size_t field : {n_at, a_at}) {
    Bytes padded = pad_field(wire, field);
    bump_u16(padded, pz_len_at);
    EXPECT_THROW(Envelope::from_bytes(scheme_.params(), padded), Error)
        << "field at " << field;
  }
}

TEST_F(Hybrid512, SolverDrivenFallbackWithCheckpointKill) {
  Bytes msg = to_bytes("kill -9 midway");
  auto env = seal_hybrid(scheme_, core::Mode::kFo, msg, user_.pub, server_.pub, "T",
                         fallback(), rng_);
  RswSolver first(env.puzzle);
  first.advance(333);
  Bytes ckpt = first.checkpoint();
  RswSolver resumed = RswSolver::restore(env.puzzle, ckpt);
  while (!resumed.done()) resumed.advance(97);
  auto out = open_hybrid_with_key(env, resumed.key());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, msg);
}

TEST(Hybrid381, BothPathsOpenBitIdentically) {
  bls12::Tre381Scheme scheme = bls12::make_tre381();
  hashing::HmacDrbg rng(to_bytes("hybrid-381"));
  auto server = scheme.server_keygen(rng);
  auto user = scheme.user_keygen(server.pub, rng);
  auto update = scheme.issue_update(server, "T");

  Bytes msg = to_bytes("hybrid on bls12-381");
  auto env = seal_hybrid(scheme, core::Mode::kReact, msg, user.pub, server.pub, "T",
                         FallbackParams{kTestSquarings, kTestModulusBits}, rng);
  auto via_server = open_hybrid(scheme, env, user.a, update, server.pub);
  ASSERT_TRUE(via_server.has_value());
  EXPECT_EQ(*via_server, msg);
  auto via_puzzle = open_hybrid_via_puzzle(env);
  ASSERT_TRUE(via_puzzle.has_value());
  EXPECT_EQ(*via_puzzle, msg);

  // Wire roundtrip on the 381 backend too.
  auto back = BasicHybridEnvelope<bls12::Bls381Backend>::from_bytes(
      scheme.params(), env.to_bytes());
  auto out = open_hybrid(scheme, back, user.a, update, server.pub);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, msg);
}

}  // namespace
}  // namespace tre::timelock
