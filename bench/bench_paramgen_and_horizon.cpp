// E9: setup cost and the "infinite horizon" property (paper footnote 2).
//
// (a) Generating fresh GDH parameters is a one-time cost, measured per
//     security level.
// (b) A TRE sender's cost is the same for a release time tomorrow or in
//     year 9999 — there is no per-epoch server material — while the
//     Rivest offline baseline must pre-publish linearly in the horizon.
#include <cstdio>

#include "baselines/rivest_pk_list.h"
#include "bench_util.h"
#include "core/tre.h"
#include "hashing/drbg.h"

int main() {
  using namespace tre;
  bench::header("E9: parameter generation and release-horizon independence",
                "the sender can pick any release time in the possibly "
                "infinite future without any pre-published server data "
                "(paper §1 fn.2); setup is a one-time prime search");

  hashing::HmacDrbg rng(to_bytes("bench-e9"));

  std::printf("runtime parameter generation (q prime, p = 12qr-1 prime):\n");
  std::printf("%-18s | %12s\n", "q bits / p bits", "time ms");
  std::printf("-------------------+--------------\n");
  for (auto [qbits, pbits] : {std::pair<size_t, size_t>{40, 96},
                              {64, 160},
                              {96, 256},
                              {160, 512}}) {
    double ms = bench::time_ms(1, [&] { (void)params::generate(rng, qbits, pbits); });
    std::printf("%6zu / %-9zu | %12.1f\n", qbits, pbits, ms);
  }

  // Horizon independence: encryption cost for near vs far release times.
  auto params = params::load("tre-512");
  core::TreScheme scheme(params);
  core::ServerKeyPair server = scheme.server_keygen(rng);
  core::UserKeyPair user = scheme.user_keygen(server.pub, rng);
  Bytes msg = rng.bytes(256);

  std::printf("\nTRE encryption cost vs release horizon (tre-512):\n");
  std::printf("%-26s | %10s\n", "release time", "enc ms");
  std::printf("---------------------------+------------\n");
  for (const char* tag : {"2026-07-08T00:00:00Z", "2036-01-01T00:00:00Z",
                          "2126-01-01T00:00:00Z", "9999-12-31T23:59:59Z"}) {
    double ms = bench::time_ms(10, [&] {
      (void)scheme.seal(core::Mode::kBasic, msg, user.pub, server.pub, tag, rng,
                        core::KeyCheck::kSkip);
    });
    std::printf("%-26s | %10.2f\n", tag, ms);
  }

  std::printf("\nRivest offline baseline: server bytes pre-published to reach the "
              "same horizons (hourly epochs, tre-toy-96):\n");
  auto toy = params::load("tre-toy-96");
  std::printf("%-26s | %14s\n", "horizon", "bytes");
  std::printf("---------------------------+----------------\n");
  for (auto [label, hours] : {std::pair<const char*, size_t>{"1 day", 24},
                              {"1 month", 720},
                              {"1 year", 8760},
                              {"10 years", 87600}}) {
    baselines::RivestPkList list(toy, hours, rng);
    std::printf("%-26s | %14zu\n", label, list.published_bytes());
  }
  std::printf("(TRE: %zu bytes of server key material reach ANY horizon)\n",
              server.pub.to_bytes().size());
  return 0;
}
