// E1 (part 2): every TRE protocol operation at the default (tre-512)
// parameter set — the practicality claim of §5.1/§5.3.1.
//
// Two modes:
//   * default: before/after comparison of the scalar-multiplication engine,
//     written as machine-readable ops-per-second to BENCH_tre_ops.json
//     (path overridable as the first positional argument). Primitive rows
//     time both kernels; protocol rows set the scheme against the pinned
//     figures of the seed-era engine (kSeed* below).
//   * --gbench [benchmark flags...]: the google-benchmark suite below.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/tre.h"
#include "ec/curve.h"
#include "hashing/drbg.h"
#include "pairing/pairing.h"

namespace {

using namespace tre;

struct SchemeFixture {
  core::TreScheme scheme{params::load("tre-512")};
  hashing::HmacDrbg rng{to_bytes("bench-tre-ops")};
  core::ServerKeyPair server = scheme.server_keygen(rng);
  core::UserKeyPair user = scheme.user_keygen(server.pub, rng);
  core::KeyUpdate update = scheme.issue_update(server, "2030-01-01T00:00:00Z");
  Bytes msg = rng.bytes(256);
  core::Ciphertext ct =
      scheme.encrypt(msg, user.pub, server.pub, "2030-01-01T00:00:00Z", rng);
};

SchemeFixture& fx() {
  static SchemeFixture f;
  return f;
}

void BM_ServerKeygen(benchmark::State& state) {
  auto& f = fx();
  for (auto _ : state) benchmark::DoNotOptimize(f.scheme.server_keygen(f.rng));
}
BENCHMARK(BM_ServerKeygen)->Unit(benchmark::kMillisecond);

void BM_UserKeygen(benchmark::State& state) {
  auto& f = fx();
  for (auto _ : state) benchmark::DoNotOptimize(f.scheme.user_keygen(f.server.pub, f.rng));
}
BENCHMARK(BM_UserKeygen)->Unit(benchmark::kMillisecond);

void BM_VerifyUserKey(benchmark::State& state) {
  auto& f = fx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.scheme.verify_user_public_key(f.server.pub, f.user.pub));
  }
}
BENCHMARK(BM_VerifyUserKey)->Unit(benchmark::kMillisecond);

void BM_IssueUpdate(benchmark::State& state) {
  auto& f = fx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.scheme.issue_update(f.server, "2030-01-01T00:00:00Z"));
  }
}
BENCHMARK(BM_IssueUpdate)->Unit(benchmark::kMillisecond);

void BM_VerifyUpdate(benchmark::State& state) {
  auto& f = fx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.scheme.verify_update(f.server.pub, f.update));
  }
}
BENCHMARK(BM_VerifyUpdate)->Unit(benchmark::kMillisecond);

void BM_EncryptWithKeyCheck(benchmark::State& state) {
  auto& f = fx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.scheme.encrypt(f.msg, f.user.pub, f.server.pub,
                                              "2030-01-01T00:00:00Z", f.rng,
                                              core::KeyCheck::kVerify));
  }
}
BENCHMARK(BM_EncryptWithKeyCheck)->Unit(benchmark::kMillisecond);

void BM_EncryptKeyPrechecked(benchmark::State& state) {
  auto& f = fx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.scheme.encrypt(f.msg, f.user.pub, f.server.pub,
                                              "2030-01-01T00:00:00Z", f.rng,
                                              core::KeyCheck::kSkip));
  }
}
BENCHMARK(BM_EncryptKeyPrechecked)->Unit(benchmark::kMillisecond);

void BM_Decrypt(benchmark::State& state) {
  auto& f = fx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.scheme.decrypt(f.ct, f.user.a, f.update));
  }
}
BENCHMARK(BM_Decrypt)->Unit(benchmark::kMillisecond);

void BM_DeriveEpochKey(benchmark::State& state) {
  auto& f = fx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.scheme.derive_epoch_key(f.user.a, f.update));
  }
}
BENCHMARK(BM_DeriveEpochKey)->Unit(benchmark::kMillisecond);

void BM_DecryptWithEpochKey(benchmark::State& state) {
  auto& f = fx();
  core::EpochKey ek = f.scheme.derive_epoch_key(f.user.a, f.update);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.scheme.decrypt_with_epoch_key(f.ct, ek));
  }
}
BENCHMARK(BM_DecryptWithEpochKey)->Unit(benchmark::kMillisecond);

void BM_RebindUserKey(benchmark::State& state) {
  auto& f = fx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.scheme.rebind_user_key(f.user.a, f.server.pub));
  }
}
BENCHMARK(BM_RebindUserKey)->Unit(benchmark::kMillisecond);

void BM_VerifyReboundKey(benchmark::State& state) {
  auto& f = fx();
  core::UserPublicKey rebound = f.scheme.rebind_user_key(f.user.a, f.server.pub);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.scheme.verify_rebound_key(f.user.pub.ag, f.server.pub.g,
                                                         f.server.pub, rebound));
  }
}
BENCHMARK(BM_VerifyReboundKey)->Unit(benchmark::kMillisecond);

// --- Before/after engine comparison ------------------------------------------

/// Steady-state ops/second of `op` (warmed up once; runs >= min_ms).
double ops_per_sec(const std::function<void()>& op, double min_ms = 250.0) {
  op();  // warm-up: populates scheme caches, faults in tables
  auto start = std::chrono::steady_clock::now();
  int iters = 0;
  double elapsed_ms = 0;
  do {
    op();
    ++iters;
    elapsed_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  } while (elapsed_ms < min_ms);
  return iters * 1000.0 / elapsed_ms;
}

struct Row {
  const char* name;
  double before_ops;
  double after_ops;
};

// The seed-era engine (wNAF ladders, no comb tables, no memo caches,
// binary G_T power) on this same harness at tre-512, as last measured on
// the reference host (1 hardware thread) before that engine was deleted
// from src/: the `before` column of the protocol rows.
constexpr double kSeedEncryptOps = 115.715, kSeedDecryptOps = 451.942,
                 kSeedIssueUpdateOps = 492.739, kSeedSequentialEncryptOps = 110.740;

int run_comparison(const std::string& json_path) {
  auto params = params::load("tre-512");
  core::TreScheme scheme(params);
  hashing::HmacDrbg rng(to_bytes("bench-compare"));
  const char* tag = "2030-01-01T00:00:00Z";

  core::ServerKeyPair server = scheme.server_keygen(rng);
  core::UserKeyPair user = scheme.user_keygen(server.pub, rng);
  core::KeyUpdate update = scheme.issue_update(server, tag);

  // Scalars cycled through the primitive benchmarks so no iteration
  // repeats its predecessor's input exactly.
  std::vector<field::FpInt> scalars;
  for (int i = 0; i < 16; ++i) scalars.push_back(params::random_scalar(*params, rng));
  size_t si = 0;
  auto next_scalar = [&]() -> const field::FpInt& {
    return scalars[si++ % scalars.size()];
  };

  std::vector<Row> rows;

  // Primitive rows time both kernels in this run; the wNAF ladder and the
  // binary G_T power stay in src/ as the tests' reference kernels.
  // Fixed-base scalar multiplication (wNAF vs comb).
  {
    ec::G1Precomp comb(server.pub.g);
    double before = ops_per_sec([&] { server.pub.g.mul(next_scalar()); });
    double after = ops_per_sec([&] { comb.mul_secret(next_scalar()); });
    rows.push_back({"fixed_base_mul", before, after});
  }

  // G_T exponentiation (binary vs unitary wNAF).
  {
    core::Gt k = pairing::pair(user.pub.asg, scheme.hash_tag(tag));
    double before = ops_per_sec([&] { k.pow_binary(next_scalar()); });
    double after = ops_per_sec([&] { k.pow_unitary(next_scalar()); });
    rows.push_back({"gt_pow", before, after});
  }

  // Protocol rows at steady state: the scheme's tag/key/pairing caches
  // are warm, which is the operating point the engine is designed for.
  Bytes msg = rng.bytes(256);
  rows.push_back(
      {"encrypt", kSeedEncryptOps,
       ops_per_sec([&] { scheme.encrypt(msg, user.pub, server.pub, tag, rng); })});
  core::Ciphertext ct = scheme.encrypt(msg, user.pub, server.pub, tag, rng);
  rows.push_back({"decrypt", kSeedDecryptOps,
                  ops_per_sec([&] { scheme.decrypt(ct, user.a, update); })});
  rows.push_back({"issue_update", kSeedIssueUpdateOps,
                  ops_per_sec([&] { scheme.issue_update(server, tag); })});

  // Batch: 1000 messages under one tag, against the seed engine's rate
  // for 1000 sequential encrypt calls.
  constexpr size_t kBatch = 1000;
  {
    std::vector<Bytes> msgs(kBatch, msg);
    auto start = std::chrono::steady_clock::now();
    std::vector<core::Ciphertext> out =
        scheme.encrypt_batch(msgs, user.pub, server.pub, tag, rng);
    double batch_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    double batch_ops = static_cast<double>(out.size()) * 1000.0 / batch_ms;
    rows.push_back({"encrypt_batch_1000", kSeedSequentialEncryptOps, batch_ops});
  }

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"params\": \"tre-512\",\n  \"unit\": \"ops_per_sec\",\n");
  std::fprintf(f, "  \"batch_size\": %zu,\n", kBatch);
  std::fprintf(f,
               "  \"pinned_before\": {\"rows\": [\"encrypt\", \"decrypt\", "
               "\"issue_update\", \"encrypt_batch_1000\"], \"source\": \"seed-era "
               "engine, last measured before its deletion; sequential encrypt for "
               "the batch row\"},\n");
  std::fprintf(f, "  \"results\": {\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    \"%s\": {\"before\": %.3f, \"after\": %.3f, "
                 "\"speedup\": %.2f}%s\n",
                 rows[i].name, rows[i].before_ops, rows[i].after_ops,
                 rows[i].after_ops / rows[i].before_ops,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "%s\n}\n", tre::bench::metrics_json_field(2).c_str());
  std::fclose(f);

  std::printf("%-20s | %12s | %12s | %8s\n", "operation", "before op/s",
              "after op/s", "speedup");
  std::printf("---------------------+--------------+--------------+---------\n");
  for (const Row& r : rows) {
    std::printf("%-20s | %12.2f | %12.2f | %7.2fx\n", r.name, r.before_ops,
                r.after_ops, r.after_ops / r.before_ops);
  }
  std::printf("(before: primitive rows measured now; protocol rows pinned from "
              "the seed-era engine)\n");
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--gbench") == 0) {
    int gargc = argc - 1;
    std::vector<char*> gargv(argv, argv + argc);
    gargv.erase(gargv.begin() + 1);  // drop --gbench, keep benchmark flags
    benchmark::Initialize(&gargc, gargv.data());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }
  std::string json_path = argc > 1 ? argv[1] : "BENCH_tre_ops.json";
  return run_comparison(json_path);
}
