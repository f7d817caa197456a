// Quickstart: the paper's protocol in one page.
//
//   1. A time server publishes its public key once.
//   2. A receiver derives a key pair bound to that server.
//   3. A sender encrypts "into the future" with NO server interaction.
//   4. At the release time the server broadcasts one self-authenticating
//      update — identical for every receiver on earth.
//   5. The receiver combines the update with their private key to decrypt.
//
// Build & run:  ./examples/quickstart
#include <cstdio>

#include "core/tre.h"
#include "hashing/drbg.h"

int main() {
  using namespace tre;

  // Domain parameters: the ~512-bit supersingular curve (80-bit security,
  // the paper-era default).
  core::TreScheme scheme(params::load("tre-512"));
  hashing::SystemRandom rng;

  // 1. Time server key generation (done once, out of band).
  core::ServerKeyPair server = scheme.server_keygen(rng);

  // 2. Receiver key generation, bound to the server's public key.
  core::UserKeyPair receiver = scheme.user_keygen(server.pub, rng);
  std::printf("receiver public key verifies: %s\n",
              scheme.verify_user_public_key(server.pub, receiver.pub) ? "yes" : "no");

  // 3. Sender: encrypt for a release time, entirely offline.
  const char* release_time = "2030-01-01T00:00:00Z";
  Bytes message = to_bytes("Happy New Year 2030!");
  core::SealedCiphertext ct =
      scheme.seal(core::Mode::kBasic, message, receiver.pub, server.pub, release_time,
                  rng);
  std::printf("ciphertext: %zu bytes for a %zu-byte message\n",
              ct.to_bytes().size(), message.size());

  // 4. The release instant arrives: the server signs the time string.
  core::KeyUpdate update = scheme.issue_update(server, release_time);
  std::printf("update self-authenticates: %s (%zu bytes, same for all users)\n",
              scheme.verify_update(server.pub, update) ? "yes" : "no",
              update.to_bytes().size());

  // 5. Receiver decrypts with private key + update.
  Bytes opened = *scheme.open(ct, receiver.a, update, server.pub);
  std::printf("decrypted: %.*s\n", static_cast<int>(opened.size()),
              reinterpret_cast<const char*>(opened.data()));

  // Before the release time there is no update, and a wrong one fails:
  core::KeyUpdate early = scheme.issue_update(server, "2029-12-31T23:59:59Z");
  // A basic ciphertext has no integrity check: it opens to garbage bytes.
  Bytes garbage = *scheme.open(ct, receiver.a, early, server.pub);
  std::printf("decrypting with the 23:59:59 update instead: %s\n",
              garbage == message ? "OPENED (bug!)" : "garbage, as intended");
  return opened == message && garbage != message ? 0 : 1;
}
