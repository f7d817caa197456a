// E7: missed updates are recoverable from the public archive (§3, §6) —
// archive cost at realistic scale. 10^6 minute-granularity updates cover
// almost two years of operation.
//
// Update signatures are synthesized (one real signature reused under
// distinct tags): the archive's cost model depends only on entry count
// and wire size, not on signature values.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "hashing/drbg.h"
#include "timeserver/archive.h"
#include "timeserver/timespec.h"

namespace {

// Catch-up validation: individual verifies vs one randomized batch.
void batch_verify_comparison() {
  using namespace tre;
  auto params = params::load("tre-512");
  core::TreScheme scheme(params);
  hashing::HmacDrbg rng(to_bytes("bench-e7-batch"));
  core::ServerKeyPair server = scheme.server_keygen(rng);

  std::printf("\ncatch-up validation of n real updates (tre-512):\n");
  std::printf("%-6s | %14s | %16s | %8s\n", "n", "per-update ms",
              "batch-verify ms", "speedup");
  std::printf("-------+----------------+------------------+----------\n");
  for (size_t n : {8u, 32u, 128u}) {
    std::vector<core::KeyUpdate> updates;
    for (size_t i = 0; i < n; ++i) {
      updates.push_back(
          scheme.issue_update(server, std::string("t").append(std::to_string(i))));
    }
    double individual_ms = bench::time_ms(1, [&] {
      for (const auto& upd : updates) {
        if (!scheme.verify_update(server.pub, upd)) std::abort();
      }
    });
    double batch_ms = bench::time_ms(1, [&] {
      if (!scheme.verify_updates_batch(server.pub, updates, rng).empty()) std::abort();
    });
    std::printf("%-6zu | %14.1f | %16.1f | %7.1fx\n", n, individual_ms, batch_ms,
                individual_ms / batch_ms);
  }
  std::printf("(batch = 2 pairings + two n-point multi-exps with 128-bit RLC "
              "weights; per-update = 2n pairings)\n");
}

}  // namespace

int main() {
  using namespace tre;
  bench::header("E7: update archive lookup/catch-up vs size (tre-toy-96)",
                "a receiver that missed any number of updates recovers with "
                "one lookup in the server's public list (§3); archive grows "
                "linearly in elapsed time only — never in users");

  auto params = params::load("tre-toy-96");
  core::TreScheme scheme(params);
  hashing::HmacDrbg rng(to_bytes("bench-e7"));
  core::ServerKeyPair server = scheme.server_keygen(rng);
  core::KeyUpdate proto = scheme.issue_update(server, "proto");

  std::printf("%-10s | %12s | %12s | %14s | %14s\n", "updates", "insert ms",
              "lookup us", "catch-up ms", "stored bytes");
  std::printf("-----------+--------------+--------------+----------------+--------------\n");

  for (size_t n : {1000u, 10000u, 100000u, 1000000u}) {
    server::UpdateArchive archive;
    server::TimeSpec t = server::TimeSpec::from_unix(0, server::Granularity::kMinute);

    double insert_ms = bench::time_ms(1, [&] {
      server::TimeSpec cur = t;
      for (size_t i = 0; i < n; ++i) {
        archive.put(core::KeyUpdate{cur.canonical(), proto.sig});
        cur = cur.next();
      }
    });

    // Random-ish lookups across the range.
    server::TimeSpec probe = server::TimeSpec::from_unix(
        static_cast<std::int64_t>(n / 2) * 60, server::Granularity::kMinute);
    double lookup_us =
        1000.0 * bench::time_ms(10000, [&] { (void)archive.find(probe.canonical()); });

    // A receiver offline for the last 10% of the range catches up.
    size_t cursor = n - n / 10;
    double catchup_ms = bench::time_ms(1, [&] {
      size_t c = cursor;
      (void)archive.since(c);
    });

    std::printf("%-10zu | %12.1f | %12.3f | %14.2f | %14zu\n", n, insert_ms,
                lookup_us, catchup_ms, archive.total_bytes());
  }
  std::printf("\n(one year of minute updates = 525600 entries; lookups stay O(1))\n");
  batch_verify_comparison();
  return 0;
}
