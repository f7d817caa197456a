// E8: cost of chosen-ciphertext security — the basic §5.1 scheme vs its
// Fujisaki-Okamoto and REACT hardenings (the two options §5 names).
#include <benchmark/benchmark.h>

#include "core/tre.h"
#include "hashing/drbg.h"

namespace {

using namespace tre;

struct Fx {
  core::TreScheme scheme{params::load("tre-512")};
  hashing::HmacDrbg rng{to_bytes("bench-cca")};
  core::ServerKeyPair server = scheme.server_keygen(rng);
  core::UserKeyPair user = scheme.user_keygen(server.pub, rng);
  core::KeyUpdate update = scheme.issue_update(server, "T");
  Bytes msg = rng.bytes(1024);
  core::SealedCiphertext basic =
      scheme.seal(core::Mode::kBasic, msg, user.pub, server.pub, "T", rng);
  core::SealedCiphertext fo =
      scheme.seal(core::Mode::kFo, msg, user.pub, server.pub, "T", rng);
  core::SealedCiphertext react =
      scheme.seal(core::Mode::kReact, msg, user.pub, server.pub, "T", rng);
};

Fx& fx() {
  static Fx f;
  return f;
}

void BM_EncryptBasic(benchmark::State& state) {
  auto& f = fx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.scheme.seal(core::Mode::kBasic, f.msg, f.user.pub, f.server.pub, "T", f.rng,
                      core::KeyCheck::kSkip));
  }
  state.counters["ct_bytes"] = static_cast<double>(f.basic.to_bytes().size());
}
BENCHMARK(BM_EncryptBasic)->Unit(benchmark::kMillisecond);

void BM_EncryptFo(benchmark::State& state) {
  auto& f = fx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.scheme.seal(core::Mode::kFo, f.msg, f.user.pub,
                                           f.server.pub, "T", f.rng,
                                           core::KeyCheck::kSkip));
  }
  state.counters["ct_bytes"] = static_cast<double>(f.fo.to_bytes().size());
}
BENCHMARK(BM_EncryptFo)->Unit(benchmark::kMillisecond);

void BM_EncryptReact(benchmark::State& state) {
  auto& f = fx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.scheme.seal(core::Mode::kReact, f.msg, f.user.pub,
                                           f.server.pub, "T", f.rng,
                                           core::KeyCheck::kSkip));
  }
  state.counters["ct_bytes"] = static_cast<double>(f.react.to_bytes().size());
}
BENCHMARK(BM_EncryptReact)->Unit(benchmark::kMillisecond);

void BM_DecryptBasic(benchmark::State& state) {
  auto& f = fx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.scheme.open(f.basic, f.user.a, f.update, f.server.pub));
  }
}
BENCHMARK(BM_DecryptBasic)->Unit(benchmark::kMillisecond);

void BM_DecryptFo(benchmark::State& state) {
  auto& f = fx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.scheme.open(f.fo, f.user.a, f.update, f.server.pub));
  }
}
BENCHMARK(BM_DecryptFo)->Unit(benchmark::kMillisecond);

void BM_DecryptReact(benchmark::State& state) {
  auto& f = fx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.scheme.open(f.react, f.user.a, f.update, f.server.pub));
  }
}
BENCHMARK(BM_DecryptReact)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
