// Key-insulated timed mailbox (paper §5.3.3).
//
// The receiver's long-term secret lives on a "smart card"; the laptop
// that actually decrypts mail only ever holds per-epoch keys derived on
// the card from each day's key update. When the laptop is compromised,
// the attacker gets exactly one epoch's mail — earlier and later epochs,
// and the long-term key, stay safe.
//
// Build & run:  ./examples/key_insulated_mailbox
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/tre.h"
#include "hashing/drbg.h"

int main() {
  using namespace tre;
  core::TreScheme scheme(params::load("tre-512"));
  hashing::HmacDrbg rng(to_bytes("insulated-example"));

  core::ServerKeyPair time_server = scheme.server_keygen(rng);
  core::UserKeyPair card_holder = scheme.user_keygen(time_server.pub, rng);

  const std::vector<std::string> days = {"2005-06-06", "2005-06-07", "2005-06-08"};

  // Senders queue one message per day.
  std::map<std::string, core::SealedCiphertext> mailbox;
  for (const auto& day : days) {
    mailbox.emplace(day, scheme.seal(core::Mode::kBasic, to_bytes("mail for " + day),
                                     card_holder.pub, time_server.pub, day, rng));
  }

  // Each day: update arrives -> smart card derives the epoch key ->
  // laptop decrypts with the epoch key only (never sees `a`).
  std::map<std::string, core::EpochKey> laptop_keys;
  for (const auto& day : days) {
    core::KeyUpdate update = scheme.issue_update(time_server, day);
    laptop_keys.emplace(day, scheme.derive_epoch_key(card_holder.a, update));
    // A basic ciphertext always opens to some bytes (no integrity check).
    Bytes mail =
        *scheme.open_with_epoch_key(mailbox.at(day), laptop_keys.at(day),
                                    time_server.pub);
    std::printf("%s laptop reads: %.*s\n", day.c_str(),
                static_cast<int>(mail.size()),
                reinterpret_cast<const char*>(mail.data()));
  }

  // Compromise: the attacker steals the laptop with day-2's epoch key.
  const core::EpochKey& stolen = laptop_keys.at("2005-06-07");
  std::printf("\nattacker steals the %s epoch key...\n", stolen.tag.c_str());
  Bytes day2 =
      *scheme.open_with_epoch_key(mailbox.at("2005-06-07"), stolen, time_server.pub);
  std::printf("  day-2 mail: %s\n",
              day2 == to_bytes("mail for 2005-06-07") ? "EXPOSED (expected: that epoch is lost)"
                                                      : "safe");
  // But the same key is useless against other days:
  for (const char* other : {"2005-06-06", "2005-06-08"}) {
    Bytes attempt =
        *scheme.open_with_epoch_key(mailbox.at(other), stolen, time_server.pub);
    bool exposed = attempt == to_bytes(std::string("mail for ") + other);
    std::printf("  %s mail: %s\n", other, exposed ? "EXPOSED (bug!)" : "safe");
    if (exposed) return 1;
  }
  std::printf("containment holds: one epoch key leaks one epoch only\n");
  return 0;
}
