// Sealed-bid government tender (the paper's §1 motivating scenario).
//
// Bidders submit timed-release-encrypted bids to the tender office well
// before the deadline. Nobody — not the office, not rival bidders, not
// the time server — can open any bid before the deadline. When the time
// server broadcasts the deadline's key update, all bids open at once.
// The CCA (Fujisaki-Okamoto) variant is used so a corrupt clerk cannot
// maul a rival's ciphertext into a related bid.
//
// Build & run:  ./examples/sealed_bid
#include <cstdio>
#include <string>
#include <vector>

#include "core/tre.h"
#include "hashing/drbg.h"
#include "timeserver/timeserver.h"

int main() {
  using namespace tre;
  auto params = params::load("tre-512");
  core::TreScheme scheme(params);
  hashing::HmacDrbg rng(to_bytes("sealed-bid-example"));

  // The tender office opens at 2005-06-01; bids unlock at 12:00 on 06-06.
  server::Timeline timeline(server::TimeSpec::parse("2005-06-01")->unix_seconds());
  server::TimeServer clock_authority(params, timeline, server::Granularity::kHour, rng);

  // The tender office is the *receiver* of all bids.
  core::UserKeyPair office = scheme.user_keygen(clock_authority.public_key(), rng);
  const std::string deadline = "2005-06-06T12Z";

  struct Bid {
    std::string bidder;
    long amount;
    core::SealedCiphertext sealed;
  };
  std::vector<Bid> bids;
  for (const auto& [bidder, amount] : std::initializer_list<std::pair<const char*, long>>{
           {"Acme Corp", 1'250'000},
           {"Bolt Ltd", 1'180'000},
           {"Carver & Sons", 1'310'000}}) {
    std::string plaintext = std::string(bidder) + " bids $" + std::to_string(amount);
    bids.push_back(Bid{bidder, amount,
                       scheme.seal(core::Mode::kFo, to_bytes(plaintext), office.pub,
                                   clock_authority.public_key(), deadline, rng)});
    std::printf("%-14s submitted a sealed bid (%zu bytes)\n", bidder,
                bids.back().sealed.to_bytes().size());
  }

  // Days pass; the office holds the ciphertexts but cannot open them:
  // the server refuses to issue the deadline update early.
  timeline.advance_to(server::TimeSpec::parse("2005-06-05")->unix_seconds());
  clock_authority.tick();
  try {
    (void)clock_authority.issue_for(*server::TimeSpec::parse(deadline));
    std::printf("ERROR: server issued a future update\n");
    return 1;
  } catch (const Error&) {
    std::printf("\n06-05: office asks for the deadline update -> server refuses\n");
  }

  // The deadline passes.
  timeline.advance_to(server::TimeSpec::parse(deadline)->unix_seconds());
  clock_authority.tick();
  core::KeyUpdate update = *clock_authority.archive().find(deadline);
  std::printf("06-06 12:00: update published (%zu bytes, one for all bidders)\n\n",
              update.to_bytes().size());

  long best = -1;
  std::string winner;
  for (const auto& bid : bids) {
    auto opened =
        scheme.open(bid.sealed, office.a, update, clock_authority.public_key());
    if (!opened) {
      std::printf("%-14s ciphertext invalid (tampered?)\n", bid.bidder.c_str());
      continue;
    }
    std::printf("opened: %.*s\n", static_cast<int>(opened->size()),
                reinterpret_cast<const char*>(opened->data()));
    if (bid.amount > best) {
      best = bid.amount;
      winner = bid.bidder;
    }
  }
  std::printf("\nwinner: %s at $%ld\n", winner.c_str(), best);
  return winner == "Carver & Sons" ? 0 : 1;
}
