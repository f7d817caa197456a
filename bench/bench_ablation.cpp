// E1 (ablation): the design choices DESIGN.md calls out, measured.
//
//   (a) Jacobian vs affine Miller loop — the inversion-free loop is the
//       reason a 512-bit pairing is milliseconds, not tens of them.
//   (b) Shared final exponentiation for verification — checking
//       ê(a1,a2) == ê(b1,b2) as one pairing product instead of two full
//       pairings (used by every key/update verification in the scheme).
//   (c) Product-of-pairings in multi-server decryption vs N independent
//       pairings.
//   (d) The encryptor's optional receiver-key check (KeyCheck::kVerify)
//       vs pre-checked keys — the cost the paper's Encryption step 1 adds.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/multiserver.h"
#include "core/tre.h"
#include "hashing/drbg.h"

int main() {
  using namespace tre;
  bench::header("E1-ablation: implementation design choices (tre-512)",
                "internal ablations; no direct paper claim — quantifies the "
                "choices that make the scheme practical on 2005-class and "
                "modern hardware alike");

  auto params = params::load("tre-512");
  core::TreScheme scheme(params);
  hashing::HmacDrbg rng(to_bytes("bench-ablation"));
  core::ServerKeyPair server = scheme.server_keygen(rng);
  core::UserKeyPair user = scheme.user_keygen(server.pub, rng);
  ec::G1Point h = ec::hash_to_g1(params->ctx(), to_bytes("T"));
  const int reps = 20;

  // (a) Miller loop style.
  double proj_ms = bench::time_ms(reps, [&] { (void)pairing::pair(server.pub.sg, h); });
  double aff_ms =
      bench::time_ms(reps, [&] { (void)pairing::pair_affine(server.pub.sg, h); });
  std::printf("(a) pairing, Jacobian Miller loop : %8.2f ms\n", proj_ms);
  std::printf("    pairing, affine Miller loop   : %8.2f ms  (%.1fx slower)\n\n",
              aff_ms, aff_ms / proj_ms);

  // (b) verification: shared final exponentiation vs two pairings.
  core::KeyUpdate update = scheme.issue_update(server, "T");
  double shared_ms = bench::time_ms(reps, [&] {
    (void)pairing::pairings_equal(server.pub.sg, h, server.pub.g, update.sig);
  });
  double two_ms = bench::time_ms(reps, [&] {
    (void)(pairing::pair(server.pub.sg, h) == pairing::pair(server.pub.g, update.sig));
  });
  std::printf("(b) update verify, shared final exp: %8.2f ms\n", shared_ms);
  std::printf("    update verify, two pairings    : %8.2f ms  (%.1fx slower)\n\n",
              two_ms, two_ms / shared_ms);

  // (c) multi-server decrypt at N = 4: product vs iterated pairings.
  {
    core::MultiServerTre mstre(params);
    std::vector<core::ServerKeyPair> servers;
    std::vector<core::ServerPublicKey> pubs;
    for (int i = 0; i < 4; ++i) {
      servers.push_back(scheme.server_keygen(rng));
      pubs.push_back(servers.back().pub);
    }
    core::Scalar a = params::random_scalar(*params, rng);
    auto mkey = mstre.user_key(a, pubs);
    auto ct = mstre.encrypt(to_bytes("msg"), mkey, pubs, "T", rng);
    std::vector<core::KeyUpdate> updates;
    for (const auto& s : servers) updates.push_back(scheme.issue_update(s, "T"));

    double product_ms =
        bench::time_ms(reps, [&] { (void)mstre.decrypt(ct, a, updates); });
    double iterated_ms = bench::time_ms(reps, [&] {
      pairing::Gt k = pairing::gt_identity(params->ctx());
      for (size_t i = 0; i < ct.us.size(); ++i) {
        k = k * pairing::pair(ct.us[i].mul(a), updates[i].sig);
      }
      (void)k;
    });
    std::printf("(c) 4-server decrypt, pairing product: %8.2f ms\n", product_ms);
    std::printf("    4-server decrypt, 4 full pairings : %8.2f ms  (%.2fx)\n\n",
                iterated_ms, iterated_ms / product_ms);
  }

  // (d) the paper's Encryption step-1 receiver-key check.
  Bytes msg = rng.bytes(256);
  double enc_checked = bench::time_ms(reps, [&] {
    (void)scheme.seal(core::Mode::kBasic, msg, user.pub, server.pub, "T", rng,
                      core::KeyCheck::kVerify);
  });
  double enc_skipped = bench::time_ms(reps, [&] {
    (void)scheme.seal(core::Mode::kBasic, msg, user.pub, server.pub, "T", rng,
                      core::KeyCheck::kSkip);
  });
  std::printf("(d) encrypt with per-message key check: %8.2f ms\n", enc_checked);
  std::printf("    encrypt, key pre-checked          : %8.2f ms  (check adds %.2f ms,"
              " amortizable per receiver)\n",
              enc_skipped, enc_checked - enc_skipped);
  return 0;
}
