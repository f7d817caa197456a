// E6: key insulation "for free" (§5.3.3) — the safe-device derivation
// cost and the insulated decryption path vs direct decryption.
#include <cstdio>

#include "bench_util.h"
#include "core/tre.h"
#include "hashing/drbg.h"

int main() {
  using namespace tre;
  bench::header("E6: key insulation (tre-512)",
                "per-epoch keys cost one scalar multiplication on the safe "
                "device; insulated decryption is no slower than direct "
                "(it skips the Gt exponentiation) (§5.3.3)");

  core::TreScheme scheme(params::load("tre-512"));
  hashing::HmacDrbg rng(to_bytes("bench-e6"));
  core::ServerKeyPair server = scheme.server_keygen(rng);
  core::UserKeyPair user = scheme.user_keygen(server.pub, rng);
  const char* tag = "2030-01-01";
  core::KeyUpdate update = scheme.issue_update(server, tag);
  Bytes msg = rng.bytes(256);
  core::SealedCiphertext ct =
      scheme.seal(core::Mode::kBasic, msg, user.pub, server.pub, tag, rng);
  core::EpochKey ek = scheme.derive_epoch_key(user.a, update);

  const int reps = 20;
  double derive_ms =
      bench::time_ms(reps, [&] { (void)scheme.derive_epoch_key(user.a, update); });
  double direct_ms =
      bench::time_ms(reps, [&] { (void)scheme.open(ct, user.a, update, server.pub); });
  double insulated_ms =
      bench::time_ms(reps, [&] { (void)scheme.open_with_epoch_key(ct, ek, server.pub); });

  std::printf("%-44s %10.3f ms\n", "safe-device epoch-key derivation (per epoch):",
              derive_ms);
  std::printf("%-44s %10.3f ms\n", "direct decryption (secret key on device):",
              direct_ms);
  std::printf("%-44s %10.3f ms\n", "insulated decryption (epoch key only):",
              insulated_ms);
  std::printf("\ninsulated path is %.0f%% of the direct cost; the long-term key "
              "never touches the decryption device\n",
              100.0 * insulated_ms / direct_ms);
  return 0;
}
