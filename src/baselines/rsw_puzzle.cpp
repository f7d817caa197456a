#include "baselines/rsw_puzzle.h"

#include <chrono>

#include "bigint/prime.h"
#include "common/error.h"
#include "common/wire.h"
#include "hashing/kdf.h"

namespace tre::baselines {

namespace {

Bytes minimal_be(const RswInt& v) {
  return v.to_bytes_be((v.bit_length() + 7) / 8);
}

// An integer field has one encoding, the minimal big-endian one: a
// leading zero byte would be a second wire image of the same puzzle.
RswInt minimal_int(ByteSpan be, const char* what) {
  require(be.empty() || be[0] != 0, what);
  return RswInt::from_bytes_be(be);
}

}  // namespace

Bytes RswPuzzle::to_bytes() const {
  return wire::Writer()
      .bytes16(minimal_be(n))
      .bytes16(minimal_be(a))
      .u64(t)
      .bytes16(sealed_key)
      .take();
}

RswPuzzle RswPuzzle::from_bytes(ByteSpan bytes) {
  wire::Reader r(bytes);
  ByteSpan n_be = r.bytes16();
  ByteSpan a_be = r.bytes16();
  RswPuzzle out;
  out.t = r.u64();
  out.sealed_key = wire::owned(r.bytes16());
  require(r.finish(), "RswPuzzle::from_bytes: truncated or trailing bytes");
  out.n = minimal_int(n_be, "RswPuzzle::from_bytes: modulus not in minimal form");
  out.a = minimal_int(a_be, "RswPuzzle::from_bytes: base not in minimal form");
  require(out.n.is_odd() && out.n.bit_length() > 1,
          "RswPuzzle::from_bytes: modulus must be an odd number > 1");
  require(out.a < out.n, "RswPuzzle::from_bytes: base not reduced mod n");
  require(out.t >= 1, "RswPuzzle::from_bytes: zero step count");
  return out;
}

RswTrapdoor Rsw::keygen(tre::hashing::RandomSource& rng, size_t modulus_bits) {
  require(modulus_bits >= 64 && modulus_bits <= 64 * kRswLimbs,
          "Rsw::keygen: bad modulus size");
  size_t half = modulus_bits / 2;
  for (;;) {
    RswInt p = bigint::random_prime<kRswLimbs>(rng, half);
    RswInt q = bigint::random_prime<kRswLimbs>(rng, modulus_bits - half);
    if (p == q) continue;
    auto n_wide = bigint::mul_wide(p, q);
    RswInt n = n_wide.resized<kRswLimbs>();  // fits: half + (bits-half) bits
    RswInt p1 = bigint::sub(p, RswInt::from_u64(1));
    RswInt q1 = bigint::sub(q, RswInt::from_u64(1));
    RswInt phi = bigint::mul_wide(p1, q1).resized<kRswLimbs>();
    return RswTrapdoor{n, phi};
  }
}

RswPuzzle Rsw::seal(const RswTrapdoor& trapdoor, ByteSpan key, std::uint64_t t,
                    tre::hashing::RandomSource& rng) {
  require(t >= 1, "Rsw::seal: t must be positive");
  RswInt a = bigint::random_below(rng, trapdoor.n);
  if (a.bit_length() < 2) a = RswInt::from_u64(2);

  // Sender shortcut: e = 2^t mod phi, then b = a^e mod n. phi is even, so
  // Montgomery does not apply; plain square-and-multiply over the 64-bit
  // exponent t is cheap (sender-side only).
  RswInt e;
  {
    RswInt base = RswInt::from_u64(2);
    RswInt acc = RswInt::from_u64(1);
    std::uint64_t exp = t;
    while (exp != 0) {
      if (exp & 1) acc = bigint::mulmod(acc, base, trapdoor.phi);
      base = bigint::mulmod(base, base, trapdoor.phi);
      exp >>= 1;
    }
    e = acc;
  }

  bigint::MontCtx<kRswLimbs> mont_n(trapdoor.n);
  RswInt b = mont_n.pow_plain(a, e);

  Bytes pad = hashing::oracle_bytes("RSW-PAD", b.to_bytes_be(8 * kRswLimbs), key.size());
  return RswPuzzle{trapdoor.n, a, t, xor_bytes(key, pad)};
}

Bytes Rsw::solve(const RswPuzzle& puzzle) {
  bool done = false;
  Bytes key = solve_with_budget(puzzle, puzzle.t, &done);
  require(done, "Rsw::solve: internal budget mismatch");
  return key;
}

Bytes Rsw::solve_with_budget(const RswPuzzle& puzzle, std::uint64_t budget, bool* done) {
  RswProgress progress;  // one-shot semantics: fresh state each call
  return solve_with_budget(puzzle, budget, done, &progress);
}

Bytes Rsw::solve_with_budget(const RswPuzzle& puzzle, std::uint64_t budget,
                             bool* done, RswProgress* progress) {
  require(done != nullptr, "Rsw::solve_with_budget: null done flag");
  require(progress != nullptr, "Rsw::solve_with_budget: null progress");
  require(progress->steps <= puzzle.t, "Rsw::solve_with_budget: progress past t");
  bigint::MontCtx<kRswLimbs> mont(puzzle.n);
  RswInt x = mont.to_mont(progress->steps == 0 ? puzzle.a : progress->x);
  std::uint64_t steps = std::min(budget, puzzle.t - progress->steps);
  for (std::uint64_t i = 0; i < steps; ++i) x = mont.sqr(x);
  progress->x = mont.from_mont(x);
  progress->steps += steps;
  if (progress->steps < puzzle.t) {
    *done = false;
    return {};
  }
  *done = true;
  return unseal(puzzle, progress->x);
}

Bytes Rsw::unseal(const RswPuzzle& puzzle, const RswInt& b) {
  Bytes pad = hashing::oracle_bytes("RSW-PAD", b.to_bytes_be(8 * kRswLimbs),
                                    puzzle.sealed_key.size());
  return xor_bytes(puzzle.sealed_key, pad);
}

double Rsw::measure_squarings_per_second(size_t modulus_bits,
                                         tre::hashing::RandomSource& rng) {
  RswTrapdoor td = keygen(rng, modulus_bits);
  bigint::MontCtx<kRswLimbs> mont(td.n);
  RswInt x = mont.to_mont(bigint::random_below(rng, td.n));
  // Warm-up + timed run.
  for (int i = 0; i < 1000; ++i) x = mont.sqr(x);
  auto start = std::chrono::steady_clock::now();
  constexpr int kIters = 20000;
  for (int i = 0; i < kIters; ++i) x = mont.sqr(x);
  auto elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start);
  // Keep x observable so the loop cannot be elided.
  volatile std::uint64_t sink = x.w[0];
  (void)sink;
  return kIters / elapsed.count();
}

}  // namespace tre::baselines
