// E13: hierarchical timed release (§6 future work via HIBE).
//
// What the hierarchy buys: the public archive stays O(days + 24 + 60)
// entries instead of one entry per elapsed minute, and a receiver that
// missed updates derives any past minute locally. What it costs: deeper
// ciphertexts (one extra point and pairing per level) and a derivation
// step on catch-up.
#include <cstdio>

#include "bench_util.h"
#include "core/tre.h"
#include "hashing/drbg.h"
#include "timeserver/hierarchical.h"

int main() {
  using namespace tre;
  bench::header("E13: hierarchical vs flat archive and scheme costs",
                "§6 future work: hierarchy makes missing updates harmless "
                "and compacts the public list; archive entries drop from "
                "O(minutes) to O(days + 24 + 60)");

  auto params = params::load("tre-toy-96");
  hashing::HmacDrbg rng(to_bytes("bench-e13"));

  // Archive growth: flat (1 entry/minute) vs compacting.
  std::printf("archive size after N days of minute-granularity operation:\n");
  std::printf("%-8s | %14s | %18s | %18s\n", "days", "flat entries",
              "hierarchical entries", "hierarchical points");
  std::printf("---------+----------------+--------------------+--------------------\n");
  for (int days : {1, 7, 30}) {
    server::Timeline timeline(0);
    server::HierarchicalTimeServer hts(params, timeline, rng);
    timeline.advance_to(static_cast<std::int64_t>(days) * 86400);
    hts.tick();
    size_t flat = static_cast<size_t>(days) * 1440 + 1;
    std::printf("%-8d | %14zu | %18zu | %18zu\n", days, flat, hts.archive().entries(),
                hts.archive().stored_points());
  }

  // Catch-up derivation costs (tre-512 for realistic numbers).
  auto big = params::load("tre-512");
  server::Timeline timeline(0);
  server::HierarchicalTimeServer hts(big, timeline, rng);
  server::HierarchicalTre htre(big);
  core::TreScheme scheme(big);
  core::ServerPublicKey bind{hts.public_key().p0, hts.public_key().q0};
  core::UserKeyPair user = scheme.user_keygen(bind, rng);

  auto release = server::TimeSpec::from_unix(23 * 60, server::Granularity::kMinute);
  Bytes msg = rng.bytes(256);
  auto ct = htre.encrypt(msg, user.pub, hts.public_key(), release, rng);
  double enc_ms = bench::time_ms(5, [&] {
    (void)htre.encrypt(msg, user.pub, hts.public_key(), release, rng);
  });

  timeline.advance_to(86400);  // a day later: day key derivable
  hibe::NodeKey leaf = hts.key_for(release);
  hibe::NodeKey hour = hts.key_for(server::TimeSpec::from_unix(0, server::Granularity::kHour));
  hibe::NodeKey day = hts.key_for(server::TimeSpec::from_unix(0, server::Granularity::kDay));

  double direct_ms = bench::time_ms(5, [&] { (void)htre.decrypt(ct, user.a, leaf); });
  double via_hour_ms = bench::time_ms(5, [&] {
    hibe::NodeKey derived = htre.hibe().derive_child(hts.public_key().p0, hour,
                                                     "1970-01-01T00:23Z",
                                                     core::Scalar::from_u64(1));
    (void)htre.decrypt(ct, user.a, derived);
  });
  double via_day_ms = bench::time_ms(5, [&] {
    hibe::NodeKey h = htre.hibe().derive_child(hts.public_key().p0, day,
                                               "1970-01-01T00Z", core::Scalar::from_u64(1));
    hibe::NodeKey m = htre.hibe().derive_child(hts.public_key().p0, h,
                                               "1970-01-01T00:23Z",
                                               core::Scalar::from_u64(1));
    (void)htre.decrypt(ct, user.a, m);
  });

  // Flat TRE reference.
  core::ServerKeyPair flat_server = scheme.server_keygen(rng);
  core::UserKeyPair flat_user = scheme.user_keygen(flat_server.pub, rng);
  auto flat_ct = scheme.seal(core::Mode::kBasic, msg, flat_user.pub, flat_server.pub, "T",
                             rng, core::KeyCheck::kSkip);
  core::KeyUpdate flat_upd = scheme.issue_update(flat_server, "T");
  double flat_enc = bench::time_ms(5, [&] {
    (void)scheme.seal(core::Mode::kBasic, msg, flat_user.pub, flat_server.pub, "T", rng,
                      core::KeyCheck::kSkip);
  });
  double flat_dec =
      bench::time_ms(
          5, [&] { (void)scheme.open(flat_ct, flat_user.a, flat_upd, flat_server.pub); });

  std::printf("\nscheme costs (tre-512, 256-byte message):\n");
  std::printf("%-44s %10.2f ms\n", "flat TRE encrypt:", flat_enc);
  std::printf("%-44s %10.2f ms\n", "hierarchical encrypt (depth 3):", enc_ms);
  std::printf("%-44s %10.2f ms\n", "flat TRE decrypt:", flat_dec);
  std::printf("%-44s %10.2f ms\n", "hierarchical decrypt, direct leaf:", direct_ms);
  std::printf("%-44s %10.2f ms\n", "hierarchical decrypt, derived from hour:",
              via_hour_ms);
  std::printf("%-44s %10.2f ms\n", "hierarchical decrypt, derived from day:",
              via_day_ms);
  return 0;
}
