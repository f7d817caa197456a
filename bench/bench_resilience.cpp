// E11: missing-update resilience (§6 future work, implemented here as
// disjunctive fallback chains) — what each extra fallback level costs,
// and what it buys: the worst-case release delay after an outage.
#include <cstdio>

#include "bench_util.h"
#include "hashing/drbg.h"
#include "timeserver/resilient.h"

int main() {
  using namespace tre;
  bench::header("E11: missing-update resilience via fallback chains (tre-512)",
                "extension of the paper's §6 future work: one extra pairing "
                "+ 32-byte wrap per fallback level at encryption; decryption "
                "unchanged; a receiver that misses the exact update waits at "
                "most one coarse granule instead of failing");

  auto params = params::load("tre-512");
  server::ResilientTre res(params);
  core::TreScheme scheme(params);
  hashing::HmacDrbg rng(to_bytes("bench-e11"));
  core::ServerKeyPair srv = scheme.server_keygen(rng);
  core::UserKeyPair user = scheme.user_keygen(srv.pub, rng);
  Bytes msg = rng.bytes(256);
  auto release = *server::TimeSpec::parse("2030-06-06T09:00:30Z");

  // Plain TRE for reference.
  double plain_enc = bench::time_ms(10, [&] {
    (void)scheme.seal(core::Mode::kBasic, msg, user.pub, srv.pub, release.canonical(),
                      rng, core::KeyCheck::kSkip);
  });
  auto plain_ct = scheme.seal(core::Mode::kBasic, msg, user.pub, srv.pub,
                              release.canonical(), rng, core::KeyCheck::kSkip);

  std::printf("%-28s | %9s | %9s | %9s | %-24s\n", "scheme / coarsest fallback",
              "enc ms", "dec ms", "ct bytes", "worst delay after outage");
  std::printf("-----------------------------+-----------+-----------+-----------+--------------------------\n");
  std::printf("%-28s | %9.2f | %9s | %9zu | %-24s\n", "plain TRE (no fallback)",
              plain_enc, "-", plain_ct.to_bytes().size(),
              "unbounded (archive only)");

  struct Row {
    const char* label;
    server::Granularity coarsest;
    const char* delay;
  };
  for (const Row& row : {Row{"chain to minute", server::Granularity::kMinute, "59 s"},
                         Row{"chain to hour", server::Granularity::kHour, "59 min"},
                         Row{"chain to day", server::Granularity::kDay, "23.98 h"}}) {
    auto ct = res.encrypt(msg, user.pub, srv.pub, release, rng, row.coarsest);
    double enc_ms = bench::time_ms(5, [&] {
      (void)res.encrypt(msg, user.pub, srv.pub, release, rng, row.coarsest);
    });
    core::KeyUpdate exact = scheme.issue_update(srv, release.canonical());
    double dec_ms = bench::time_ms(5, [&] { (void)res.decrypt(ct, user.a, exact); });
    std::printf("%-28s | %9.2f | %9.2f | %9zu | %-24s\n", row.label, enc_ms, dec_ms,
                ct.to_bytes().size(), row.delay);
  }
  std::printf("\n(the encryption cost is the sender's alone; the passive server "
              "just broadcasts each granularity's boundary as it passes)\n");
  return 0;
}
