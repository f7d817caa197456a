// E2: TRE vs the generic hybrid PKE+IBE composition (footnote 3) vs
// ID-TRE. Checks the paper's §1 claim: "Our schemes could have 50%
// reduction in most cases" in computation and/or ciphertext size.
#include <cstdio>

#include "baselines/hybrid.h"
#include "bench_util.h"
#include "core/tre.h"
#include "hashing/drbg.h"
#include "idtre/idtre.h"

int main() {
  using namespace tre;
  bench::header("E2: TRE vs hybrid PKE+IBE vs ID-TRE (tre-512)",
                "TRE ~50% cheaper than the hybrid composition in asymmetric "
                "ciphertext overhead and decryption cost (paper §1)");

  auto params = params::load("tre-512");
  core::TreScheme tre_scheme(params);
  baselines::HybridTre hybrid(params);
  idtre::IdTreScheme id_scheme(params);
  hashing::HmacDrbg rng(to_bytes("bench-e2"));

  core::ServerKeyPair server = tre_scheme.server_keygen(rng);
  core::UserKeyPair user = tre_scheme.user_keygen(server.pub, rng);
  baselines::PkeKeyPair pke_user = hybrid.pke_keygen(rng);
  idtre::IdPrivateKey id_user = id_scheme.extract(server, "receiver@example.org");
  const char* tag = "2030-01-01T00:00:00Z";
  core::KeyUpdate update = tre_scheme.issue_update(server, tag);

  const int reps = 20;
  std::printf("%-8s | %-22s | %10s | %10s | %10s\n", "msg", "scheme", "enc ms",
              "dec ms", "ct bytes");
  std::printf("---------+------------------------+------------+------------+------------\n");

  for (size_t msg_size : {32u, 256u, 4096u, 65535u}) {
    Bytes msg = rng.bytes(msg_size);

    auto tre_ct = tre_scheme.seal(core::Mode::kBasic, msg, user.pub, server.pub, tag, rng,
                                  core::KeyCheck::kSkip);
    double tre_enc = bench::time_ms(reps, [&] {
      (void)tre_scheme.seal(core::Mode::kBasic, msg, user.pub, server.pub, tag, rng,
                            core::KeyCheck::kSkip);
    });
    double tre_dec = bench::time_ms(
        reps, [&] { (void)tre_scheme.open(tre_ct, user.a, update, server.pub); });
    // The §5.1 ciphertext ⟨U, V⟩ itself, without the sealed wire's mode byte.
    const size_t tre_bytes = std::get<core::Ciphertext>(tre_ct.body).to_bytes().size();
    std::printf("%-8zu | %-22s | %10.2f | %10.2f | %10zu\n", msg_size,
                "TRE (this paper)", tre_enc, tre_dec, tre_bytes);

    auto hyb_ct = hybrid.encrypt(msg, pke_user, server.pub, tag, rng);
    double hyb_enc = bench::time_ms(
        reps, [&] { (void)hybrid.encrypt(msg, pke_user, server.pub, tag, rng); });
    double hyb_dec =
        bench::time_ms(reps, [&] { (void)hybrid.decrypt(hyb_ct, pke_user.b, update); });
    std::printf("%-8zu | %-22s | %10.2f | %10.2f | %10zu\n", msg_size,
                "hybrid PKE+IBE", hyb_enc, hyb_dec, hyb_ct.to_bytes().size());

    auto id_ct = id_scheme.seal(core::Mode::kBasic, msg, "receiver@example.org",
                                server.pub, tag, rng);
    double id_enc = bench::time_ms(reps, [&] {
      (void)id_scheme.seal(core::Mode::kBasic, msg, "receiver@example.org", server.pub,
                           tag, rng);
    });
    double id_dec = bench::time_ms(
        reps, [&] { (void)id_scheme.open(id_ct, id_user, update, server.pub); });
    std::printf("%-8zu | %-22s | %10.2f | %10.2f | %10zu\n", msg_size,
                "ID-TRE (escrowed)", id_enc, id_dec,
                std::get<core::Ciphertext>(id_ct.body).to_bytes().size());

    // Headline ratios for the fixed asymmetric part.
    size_t point = params->g1_compressed_bytes();
    size_t tre_overhead = tre_bytes - msg_size;
    size_t hyb_overhead = hyb_ct.to_bytes().size() - msg_size;
    std::printf("%-8s   asym overhead: TRE %zuB (1 point) vs hybrid %zuB (2 points)"
                " -> %.0f%% saved; dec: %.0f%% saved\n",
                "", tre_overhead, hyb_overhead,
                100.0 * (1.0 - static_cast<double>(tre_overhead) /
                                   static_cast<double>(hyb_overhead)),
                100.0 * (1.0 - tre_dec / hyb_dec));
    (void)point;
  }
  return 0;
}
