// E3: server cost per epoch as the receiver population grows.
//
// TRE broadcasts ONE update regardless of N (paper §5.3.1); Mont/HP Time
// Vault extracts and unicasts N keys; Rivest's offline variant must
// pre-publish a key list covering the whole horizon; May's escrow stores
// every in-flight message. The toy curve is used so the O(N) baselines
// remain runnable at N = 10^4.
#include <cstdio>
#include <string>

#include "baselines/may_escrow.h"
#include "baselines/mont_timevault.h"
#include "baselines/rivest_pk_list.h"
#include "bench_util.h"
#include "core/tre.h"
#include "hashing/drbg.h"

int main() {
  using namespace tre;
  bench::header("E3: per-epoch server cost vs number of receivers (tre-toy-96)",
                "TRE server work and bytes are O(1) in the user count; "
                "Mont et al. is O(N); Rivest offline is O(horizon); May is "
                "O(in-flight messages) (paper §1, §2.2, §5.3.1)");

  auto params = params::load("tre-toy-96");
  core::TreScheme scheme(params);
  hashing::HmacDrbg rng(to_bytes("bench-e3"));
  core::ServerKeyPair server = scheme.server_keygen(rng);

  std::printf("%-8s | %-26s | %12s | %14s\n", "N users", "system", "cpu ms/epoch",
              "bytes/epoch");
  std::printf("---------+----------------------------+--------------+--------------\n");

  for (size_t n : {1u, 10u, 100u, 1000u, 10000u}) {
    // TRE: one update, independent of N.
    double tre_ms = bench::time_ms(
        10, [&] { (void)scheme.issue_update(server, "2030-01-01T00:00:00Z"); });
    size_t tre_bytes = scheme.issue_update(server, "2030-01-01T00:00:00Z").to_bytes().size();
    std::printf("%-8zu | %-26s | %12.3f | %14zu\n", n, "TRE broadcast (this paper)",
                tre_ms, tre_bytes);

    // Mont/HP: extract + unicast per user.
    baselines::MontTimeVault vault(params, rng);
    for (size_t i = 0; i < n; ++i) vault.register_user("user-" + std::to_string(i));
    double vault_ms = bench::time_ms(1, [&] { (void)vault.epoch_tick("T0"); });
    size_t vault_bytes = vault.stats().bytes_unicast;
    std::printf("%-8zu | %-26s | %12.3f | %14zu\n", n, "Mont/HP time vault", vault_ms,
                vault_bytes);

    // May: the agent stores one message per user until release.
    baselines::MayEscrowAgent agent;
    Bytes msg(256, 0xab);
    double may_ms = bench::time_ms(1, [&] {
      for (size_t i = 0; i < n; ++i) {
        agent.deposit(std::string("s").append(std::to_string(i)),
                      std::string("r").append(std::to_string(i)), msg, 1000);
      }
    });
    std::printf("%-8zu | %-26s | %12.3f | %14zu (storage)\n", n, "May escrow agent",
                may_ms, agent.stored_bytes());
  }

  // Rivest offline list: cost is in the horizon, not the user count.
  std::printf("\nRivest offline public-key list (one-time publication, any N):\n");
  std::printf("%-16s | %14s | %12s\n", "horizon epochs", "bytes", "keygen ms");
  for (size_t horizon : {24u, 168u, 8760u}) {  // day, week, year of hourly epochs
    double ms = 0;
    size_t bytes = 0;
    ms = bench::time_ms(1, [&] {
      baselines::RivestPkList list(params, horizon, rng);
      bytes = list.published_bytes();
    });
    std::printf("%-16zu | %14zu | %12.1f\n", horizon, bytes, ms);
  }
  std::printf("(a TRE sender reaches ANY future instant with %zu bytes of "
              "server key material)\n",
              server.pub.to_bytes().size());

  // What the run cost in protocol operations, from the hot-path probes.
  std::printf("\nmetrics snapshot (obs::Registry::global()):\n%s\n",
              obs::Registry::global().to_json().c_str());
  return 0;
}
