// A k-of-n threshold time-server network (the architecture drand/tlock
// later deployed; our k-of-n generalization of the paper's §5.3.5).
//
// Five independent operators each hold a share of the network secret.
// Every minute each live operator broadcasts a partial update; any three
// partials combine into the ordinary s·H1(T) update, so senders and
// receivers see a SINGLE logical time server that no two colluding
// operators can impersonate and no two crashed operators can halt.
//
// Build & run:  ./examples/threshold_network
#include <cstdio>
#include <vector>

#include "core/tre.h"
#include "hashing/drbg.h"
#include "threshold/threshold.h"

int main() {
  using namespace tre;
  threshold::BasicThresholdScheme<core::Tre512Backend> network(params::load("tre-512"));
  hashing::HmacDrbg rng(to_bytes("threshold-example"));

  // Dealer ceremony: 5 operators, threshold 3.
  auto [net_key, shares] = network.setup(threshold::ThresholdConfig{5, 3}, rng);
  std::printf("network of %zu operators, threshold %zu; group key published\n",
              net_key.config.n, net_key.config.k);

  // An ordinary user binds to the GROUP key — the sharing is invisible.
  const core::TreScheme& scheme = network.scheme();
  core::UserKeyPair user = scheme.user_keygen(net_key.group, rng);
  const char* release = "2030-01-01T00:00:00Z";
  Bytes msg = to_bytes("released by any 3 of 5 operators");
  core::Ciphertext ct = scheme.encrypt(msg, user.pub, net_key.group, release, rng);
  std::printf("message sealed for %s\n\n", release);

  // The release minute arrives. Operators 2 and 5 are down; 4 is
  // malicious and publishes garbage.
  std::vector<threshold::BasicPartialUpdate<core::Tre512Backend>> received;
  for (size_t op : {1u, 3u, 4u}) {
    threshold::BasicPartialUpdate<core::Tre512Backend> p =
        network.issue_partial(shares[op - 1], release);
    if (op == 4) p.sig = p.sig.doubled();  // corrupted
    bool ok = network.verify_partial(net_key, p);
    std::printf("operator %zu broadcast a partial: %s\n", op,
                ok ? "valid" : "REJECTED (bad signature)");
    if (ok) received.push_back(p);
  }

  // Two valid partials are not enough...
  try {
    (void)network.combine(net_key, received);
    std::printf("ERROR: combined below threshold\n");
    return 1;
  } catch (const Error&) {
    std::printf("2 valid partials < threshold 3 -> cannot combine yet\n");
  }

  // ...operator 2 comes back online.
  received.push_back(network.issue_partial(shares[1], release));
  std::printf("operator 2 recovered and broadcast its partial\n");
  core::KeyUpdate update = network.combine(net_key, received);
  std::printf("combined update self-authenticates: %s\n",
              scheme.verify_update(net_key.group, update) ? "yes" : "no");

  Bytes opened = scheme.decrypt(ct, user.a, update);
  std::printf("decrypted: %.*s\n", static_cast<int>(opened.size()),
              reinterpret_cast<const char*>(opened.data()));
  return opened == msg ? 0 : 1;
}
