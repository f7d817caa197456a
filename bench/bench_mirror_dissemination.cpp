// E16: planetary-scale dissemination of the "publicly accessible place"
// (paper §3) — a mirrored archive over simulated WAN links.
//
// Measures, for growing receiver populations and mirror counts:
//   * availability latency: seconds from the release instant until a
//     receiver holds the (missed) update, VERIFIED, via the same
//     client::UpdateFetcher pipeline every other experiment uses
//     (reply deadline, jittered backoff, pairing check);
//   * origin offload: what fraction of fetch traffic the mirrors absorb.
// The passive-server design makes this trivially shardable — updates are
// public, self-authenticating, identical for everyone — which is exactly
// why one update per instant scales to any audience.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "client/fetcher.h"
#include "client/simnet_source.h"
#include "core/tre.h"
#include "hashing/drbg.h"
#include "simnet/mirrors.h"

int main() {
  using namespace tre;
  bench::header("E16: mirrored archive dissemination (simulated WAN, tre-toy-96)",
                "§3: receivers that missed the broadcast recover from a "
                "public list; mirroring that list offloads the origin "
                "without any trust (updates self-authenticate)");

  auto params = params::load("tre-toy-96");
  core::TreScheme scheme(params);
  hashing::HmacDrbg rng(to_bytes("bench-e16"));
  core::ServerKeyPair server = scheme.server_keygen(rng);

  std::printf("%-10s | %-8s | %10s | %10s | %12s | %14s\n", "receivers", "mirrors",
              "p50 avail", "p95 avail", "origin reqs", "mirror reqs");
  std::printf("-----------+----------+------------+------------+--------------+--------------\n");

  for (size_t receivers : {100u, 1000u}) {
    for (size_t mirrors : {1u, 4u, 16u}) {
      server::Timeline timeline(0);
      simnet::Network net(timeline, to_bytes("e16"));
      // Replication links: 1-3 s WAN latency, 1% loss is handled by the
      // receivers' retries.
      simnet::MirroredArchive cluster(params, net, timeline, mirrors,
                                      simnet::LinkSpec{.base_delay = 1, .jitter = 2});

      // The release instant is t=10; the update publishes then.
      core::KeyUpdate update = scheme.issue_update(server, "T-release");
      timeline.schedule(10, [&] { cluster.publish(update); });

      std::vector<std::int64_t> availability;
      availability.reserve(receivers);
      // Sources outlive the fetchers that read them (destroyed in reverse).
      std::vector<std::unique_ptr<client::SimnetSource>> sources;
      std::vector<std::unique_ptr<client::UpdateFetcher>> fetchers;
      // Receivers' access links: 2 s latency with up to 1 s jitter. The
      // reply deadline is set just past the worst round trip on it, so a
      // silent mirror (one the replica has not reached yet) costs as
      // little waiting as the link allows.
      const simnet::LinkSpec access{.base_delay = 2, .jitter = 1};
      client::FetcherConfig cfg;
      cfg.attempts_per_tag = 20;
      cfg.reply_timeout = 2 * (access.base_delay + access.jitter) + 1;
      for (size_t i = 0; i < receivers; ++i) {
        // Receivers spread over mirrors round-robin; each draws its
        // backoff jitter from its own seed.
        simnet::NodeId rx = net.add_node("rx" + std::to_string(i));
        sources.push_back(std::make_unique<client::SimnetSource>(cluster, rx, access));
        fetchers.push_back(std::make_unique<client::UpdateFetcher>(
            scheme, server.pub, *sources.back(), timeline,
            std::vector<size_t>{i % mirrors}, to_bytes("e16-rx" + std::to_string(i)),
            cfg));
        // Receivers start fetching at the release instant.
        timeline.schedule(10, [&, f = fetchers.back().get()] {
          f->fetch_verified({"T-release"},
                            [&availability, &timeline](const client::FetchResult&) {
                              availability.push_back(timeline.now() - 10);
                            });
        });
      }
      timeline.advance_to(500);

      if (availability.size() != receivers) {
        std::printf("ERROR: %zu/%zu receivers never got the update\n",
                    receivers - availability.size(), receivers);
        return 1;
      }
      std::sort(availability.begin(), availability.end());
      std::printf("%-10zu | %-8zu | %8lld s | %8lld s | %12llu | %14llu\n", receivers,
                  mirrors,
                  static_cast<long long>(availability[availability.size() / 2]),
                  static_cast<long long>(availability[availability.size() * 95 / 100]),
                  static_cast<unsigned long long>(cluster.stats().origin_requests),
                  static_cast<unsigned long long>(cluster.stats().mirror_requests));
    }
  }
  std::printf("\n(origin request count stays 0: every read is served by an "
              "untrusted mirror; integrity rides on the update's own BLS "
              "self-authentication)\n");
  return 0;
}
