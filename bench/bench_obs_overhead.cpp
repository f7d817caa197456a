// Observability overhead: what the obs:: probe layer costs on the
// encrypt/decrypt hot loop (acceptance: <= 2% — see docs/OBSERVABILITY.md).
//
// Two measurements:
//   * probe primitives in isolation — one CounterProbe::add() and one
//     Span start/stop, in nanoseconds. Multiplied by the probes a single
//     encrypt executes, this bounds the overhead analytically.
//   * the encrypt/decrypt loop itself, ops/second, written to
//     BENCH_obs_overhead.json (path = argv[1]).
//
// Exits 1 when the analytic bound exceeds 2%; ctest runs it as
// obs_overhead_budget in every non-sanitizer tree.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "core/tre.h"
#include "hashing/drbg.h"

int main(int argc, char** argv) {
  using namespace tre;
  bench::header("obs overhead: probe cost on the encrypt/decrypt hot loop",
                "metrics must be ~free: counters are one relaxed atomic, spans "
                "batch thread-locally; total <= 2% of an encrypt");

  auto params = params::load("tre-512");
  core::TreScheme scheme(params);
  hashing::HmacDrbg rng(to_bytes("bench-obs-overhead"));
  const char* tag = "2030-01-01T00:00:00Z";
  core::ServerKeyPair server = scheme.server_keygen(rng);
  core::UserKeyPair user = scheme.user_keygen(server.pub, rng);
  core::KeyUpdate update = scheme.issue_update(server, tag);
  Bytes msg = rng.bytes(256);

  // Probe primitives in isolation.
  obs::CounterProbe counter("bench.obs_overhead.counter");
  obs::HistogramProbe hist("bench.obs_overhead.span_ns");
  constexpr int kProbeReps = 1'000'000;
  double counter_ns = 1e6 * bench::time_ms(1, [&] {
                        for (int i = 0; i < kProbeReps; ++i) counter.add();
                      }) /
                      kProbeReps;
  double span_ns = 1e6 * bench::time_ms(1, [&] {
                     for (int i = 0; i < kProbeReps; ++i) obs::Span span(hist);
                   }) /
                   kProbeReps;

  // The hot loop. Warmed caches: the steady state the probes sit in.
  scheme.seal(core::Mode::kBasic, msg, user.pub, server.pub, tag, rng);
  constexpr int kOpsReps = 200;
  double encrypt_ms = bench::time_ms(kOpsReps, [&] {
    scheme.seal(core::Mode::kBasic, msg, user.pub, server.pub, tag, rng);
  });
  core::SealedCiphertext ct =
      scheme.seal(core::Mode::kBasic, msg, user.pub, server.pub, tag, rng);
  double decrypt_ms =
      bench::time_ms(kOpsReps, [&] { scheme.open(ct, user.a, update, server.pub); });

  // A steady-state seal fires 6 counter probes (core.seals, the
  // key-check, comb, tag and pair-base cache hits, the comb multiply)
  // and one span; bound the per-op probe bill generously at 8 counters
  // + 1 span.
  double probe_bill_ns = 8 * counter_ns + span_ns;
  double overhead_pct = 100.0 * probe_bill_ns / (encrypt_ms * 1e6);

  std::printf("counter add          : %8.2f ns\n", counter_ns);
  std::printf("span start/stop      : %8.2f ns\n", span_ns);
  std::printf("encrypt (steady)     : %8.3f ms\n", encrypt_ms);
  std::printf("decrypt (steady)     : %8.3f ms\n", decrypt_ms);
  std::printf("probe bill/encrypt   : %8.2f ns  (8 counters + 1 span)\n", probe_bill_ns);
  std::printf("analytic overhead    : %8.4f %%  (must be <= 2%%)\n", overhead_pct);

  const char* json_path = argc > 1 ? argv[1] : "BENCH_obs_overhead.json";
  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f, "{\n  \"counter_add_ns\": %.2f,\n  \"span_ns\": %.2f,\n", counter_ns,
                 span_ns);
    std::fprintf(f, "  \"encrypt_ms\": %.4f,\n  \"decrypt_ms\": %.4f,\n", encrypt_ms,
                 decrypt_ms);
    std::fprintf(f, "  \"encrypt_ops_per_sec\": %.2f,\n", 1000.0 / encrypt_ms);
    std::fprintf(f, "  \"decrypt_ops_per_sec\": %.2f,\n", 1000.0 / decrypt_ms);
    std::fprintf(f, "  \"analytic_overhead_pct\": %.4f,\n", overhead_pct);
    std::fprintf(f, "%s\n}\n", bench::metrics_json_field(2).c_str());
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);
  }
  return overhead_pct <= 2.0 ? 0 : 1;
}
