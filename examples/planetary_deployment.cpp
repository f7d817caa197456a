// Planetary deployment: everything composed.
//
//   * a 3-of-5 THRESHOLD operator network stands in for the single time
//     server (no operator pair can cheat, two may crash);
//   * the combined updates are pushed to regional MIRRORS over a
//     simulated WAN (latency + jitter);
//   * receivers on three continents fetch from their regional mirror
//     through the verify-everything client pipeline and decrypt — the
//     origin serves no reads and knows no receivers, reproducing the
//     paper's GPS analogy end to end.
//
// Build & run:  ./examples/planetary_deployment
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "client/fetcher.h"
#include "client/simnet_source.h"
#include "core/tre.h"
#include "hashing/drbg.h"
#include "simnet/mirrors.h"
#include "threshold/threshold.h"
#include "timeserver/timespec.h"

int main() {
  using namespace tre;
  auto params = params::load("tre-toy-96");
  threshold::BasicThresholdScheme<core::Tre512Backend> network(params);
  const core::TreScheme& scheme = network.scheme();
  hashing::HmacDrbg rng(to_bytes("planetary-example"));

  // Operator ceremony.
  auto [net_key, shares] = network.setup(threshold::ThresholdConfig{5, 3}, rng);
  std::printf("time service: 5 operators, threshold 3\n");

  // Regional infrastructure over a simulated WAN.
  server::Timeline timeline(0);
  simnet::Network wan(timeline, to_bytes("planetary-wan"));
  simnet::MirroredArchive mirrors(params, wan, timeline, /*mirror_count=*/3,
                                  simnet::LinkSpec{.base_delay = 1, .jitter = 2});
  const char* region_names[3] = {"americas", "europe", "asia"};

  // Receivers: one per region, each with mail releasing at t=60.
  const server::TimeSpec release = server::TimeSpec::from_unix(60);
  struct Receiver {
    core::UserKeyPair keys;
    core::Ciphertext mail;
    simnet::NodeId node;
    std::optional<Bytes> opened;
  };
  std::vector<Receiver> receivers;
  for (int r = 0; r < 3; ++r) {
    core::UserKeyPair keys = scheme.user_keygen(net_key.group, rng);
    Bytes msg = to_bytes(std::string("briefing for ") + region_names[r]);
    core::Ciphertext mail =
        scheme.encrypt(msg, keys.pub, net_key.group, release.canonical(), rng);
    receivers.push_back(Receiver{keys, mail,
                                 wan.add_node(std::string("rx-") + region_names[r]),
                                 std::nullopt});
  }
  std::printf("3 regional receivers provisioned; mail sealed for %s\n",
              release.canonical().c_str());

  // At the release instant: three operators are up, partials combine,
  // the update goes to the mirrors.
  timeline.schedule(60, [&] {
    std::vector<threshold::BasicPartialUpdate<core::Tre512Backend>> partials = {
        network.issue_partial(shares[0], release.canonical()),
        network.issue_partial(shares[2], release.canonical()),
        network.issue_partial(shares[4], release.canonical()),
    };
    for (const auto& p : partials) {
      if (!network.verify_partial(net_key, p)) {
        std::printf("operator %zu partial invalid!\n", p.index);
      }
    }
    core::KeyUpdate update = network.combine(net_key, partials);
    std::printf("t=%lld: operators 1,3,5 combined the update (2 and 4 down); "
                "pushing to mirrors\n",
                static_cast<long long>(timeline.now()));
    mirrors.publish(update);
  });

  // Receivers fetch from their regional mirror from the release instant;
  // each fetcher verifies the update against the network's group key.
  std::vector<std::unique_ptr<client::SimnetSource>> sources;
  std::vector<std::unique_ptr<client::UpdateFetcher>> fetchers;
  for (size_t r = 0; r < receivers.size(); ++r) {
    sources.push_back(std::make_unique<client::SimnetSource>(
        mirrors, receivers[r].node, simnet::LinkSpec{.base_delay = 1, .jitter = 1}));
    fetchers.push_back(std::make_unique<client::UpdateFetcher>(
        scheme, net_key.group, *sources[r], timeline, std::vector<size_t>{r},
        to_bytes(std::string("planetary-") + region_names[r])));
    timeline.schedule(60, [&, r] {
      fetchers[r]->fetch_verified(
          {release.canonical()}, [&, r](const client::FetchResult& got) {
            receivers[r].opened =
                scheme.decrypt(receivers[r].mail, receivers[r].keys.a, got.update);
            std::printf("t=%lld: %s decrypted: %.*s\n",
                        static_cast<long long>(timeline.now()),
                        wan.name_of(receivers[r].node).c_str(),
                        static_cast<int>(receivers[r].opened->size()),
                        reinterpret_cast<const char*>(receivers[r].opened->data()));
          });
    });
  }

  timeline.advance_to(120);

  bool all_opened = true;
  for (size_t r = 0; r < receivers.size(); ++r) {
    Bytes expect = to_bytes(std::string("briefing for ") + region_names[r]);
    if (!receivers[r].opened || *receivers[r].opened != expect) all_opened = false;
  }
  std::printf("\norigin served %llu read requests (mirrors absorbed the rest); "
              "WAN carried %llu bytes\n",
              static_cast<unsigned long long>(mirrors.stats().origin_requests),
              static_cast<unsigned long long>(wan.stats().bytes_carried));
  std::printf("%s\n", all_opened ? "all regions released on time"
                                 : "RELEASE FAILED somewhere");
  return all_opened ? 0 : 1;
}
