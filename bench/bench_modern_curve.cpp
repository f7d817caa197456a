// E17: the 2005 instantiation vs the modern one — SAME generic core.
//
// Since the backend refactor both columns run the identical
// core::BasicTreScheme<B> code path; only the pairing backend differs:
//   * type-1 supersingular curve, ~80-bit security (the paper's era);
//   * BLS12-381 type-3 pairing, ~128-bit security (what drand/tlock run
//     this very construction on today).
// The headline: the modern curve gives SHORTER updates (49-byte G1
// points vs 65) at much higher security, and since the projective
// Miller loop + cyclotomic final exponentiation landed the 381 column
// is within a small factor of the 2005 curve instead of ~20x behind.
//
// Alongside the table the harness writes BENCH_modern_curve.json with
// the per-backend rows (including the pre-optimization `baseline_*`
// timings, pinned from the seed run so the speedup is auditable without
// digging through git), pairing-engine sub-timings (Miller loop vs
// final exponentiation, cold vs cached lines), the point-ingestion
// timings a cold receiver pays per update (hash-to-curve, decoding and
// the subgroup test, with the [r]P oracle timed beside it), the
// base-field and tower products the pairing is made of (with the generic
// field::Fp2 product timed beside the backend's own), the two kernels a
// per-message secret can take on each backend (the G_1 secret ladder and
// the G_T power, with the backend's kSessionPowInGt choice beside them),
// and the global metrics registry snapshot, so the per-backend probe
// prefixes (core.* vs core.bls381.*) are visible in one artifact.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bigint/prime.h"
#include "bls12/tre381.h"
#include "core/tre.h"
#include "hashing/drbg.h"
#include "hashing/kdf.h"

namespace {

/// One timed batch: `ops` operations per call of `run`.
struct Batch {
  double ops;
  std::function<void()> run;
};

/// Each of `rounds` rounds runs one batch of every kernel in turn, so all
/// kernels see the same stretches of host load. Returns each kernel's
/// fastest batch mean, in microseconds per operation.
std::vector<double> fastest_batch_means(const std::vector<Batch>& batches, int rounds) {
  std::vector<double> us(batches.size(), 0);
  for (int round = 0; round < rounds; ++round) {
    for (size_t k = 0; k < batches.size(); ++k) {
      auto start = std::chrono::steady_clock::now();
      batches[k].run();
      std::chrono::duration<double, std::micro> elapsed =
          std::chrono::steady_clock::now() - start;
      const double mean = elapsed.count() / batches[k].ops;
      us[k] = round == 0 ? mean : std::min(us[k], mean);
    }
  }
  return us;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tre;
  bench::header("E17: 2005 type-1 curve vs BLS12-381 type-3 (fast engine)",
                "the paper's scheme ports unchanged to modern asymmetric "
                "pairings; updates get SHORTER (49 B vs 65 B) while security "
                "rises from ~80 to ~128 bits");

  hashing::HmacDrbg rng(to_bytes("bench-e17"));
  Bytes msg = rng.bytes(256);
  const char* tag = "2030-01-01T00:00:00Z";

  // Type-1 (tre-512) through the generic core.
  core::TreScheme t1(params::load("tre-512"));
  core::ServerKeyPair s1 = t1.server_keygen(rng);
  core::UserKeyPair u1 = t1.user_keygen(s1.pub, rng);
  core::KeyUpdate upd1 = t1.issue_update(s1, tag);
  auto ct1 =
      t1.seal(core::Mode::kBasic, msg, u1.pub, s1.pub, tag, rng, core::KeyCheck::kSkip);

  // Type-3 (BLS12-381) through the SAME generic core.
  bls12::Tre381Scheme t3 = bls12::make_tre381();
  bls12::ServerKey381 s3 = t3.server_keygen(rng);
  bls12::UserKey381 u3 = t3.user_keygen(s3.pub, rng);
  bls12::Update381 upd3 = t3.issue_update(s3, tag);
  auto ct3 =
      t3.seal(core::Mode::kBasic, msg, u3.pub, s3.pub, tag, rng, core::KeyCheck::kSkip);

  // Warm every memo cache (tag hashes, Miller lines, pair bases, combs)
  // before timing: the table documents steady-state costs, matching the
  // "warm caches" convention of docs/PERF.md. With the fast engine the
  // per-op costs are single-digit milliseconds, so the rep count is high
  // enough that a stray scheduler blip does not dominate the mean.
  (void)t1.verify_update(s1.pub, upd1);
  (void)t1.open(ct1, u1.a, upd1, s1.pub);
  (void)t3.verify_update(s3.pub, upd3);
  (void)t3.open(ct3, u3.a, upd3, s3.pub);

  const int reps = 20;
  // The seed tree's timings (affine F_p12 Miller loop, generic
  // final-exponentiation power, double-and-add ladders) on this same
  // harness — the denominators of the speedup line below.
  struct Baseline {
    double issue, verify, enc, dec;
  };
  const Baseline kBaseline512{0.642, 3.571, 0.324, 6.694};
  const Baseline kBaseline381{0.854, 77.137, 13.352, 66.572};

  struct Row {
    const char* name;
    const char* curve;
    double issue, verify, enc, enc_fresh, dec;
    Baseline baseline;
    size_t update_point_bytes, update_wire_bytes, ct_header_bytes;
    const char* security;
  };
  Row rows[2];

  // encrypt_ms reseals one (receiver, tag), so a memoized pair base can
  // hit; encrypt_fresh_ms seals to a fresh tag on each rep, hashed
  // beforehand, which is the traffic of a release or beacon message.
  std::vector<std::string> fresh_tags;
  for (int i = 0; i < reps; ++i) {
    fresh_tags.push_back(std::string(tag).append("/fresh-").append(std::to_string(i)));
    (void)t1.hash_tag(fresh_tags.back());
    (void)t3.hash_tag(fresh_tags.back());
  }
  auto fresh_seals = [&](const auto& scheme, const auto& user, const auto& server) {
    size_t next = 0;
    return bench::time_ms(reps, [&] {
      (void)scheme.seal(core::Mode::kBasic, msg, user.pub, server.pub, fresh_tags[next++],
                        rng, core::KeyCheck::kSkip);
    });
  };

  rows[0] = Row{"type-1 supersingular (tre-512)", "tre-512",
                bench::time_ms(reps, [&] { (void)t1.issue_update(s1, tag); }),
                bench::time_ms(reps, [&] { (void)t1.verify_update(s1.pub, upd1); }),
                bench::time_ms(reps, [&] {
                  (void)t1.seal(core::Mode::kBasic, msg, u1.pub, s1.pub, tag, rng,
                                core::KeyCheck::kSkip);
                }),
                fresh_seals(t1, u1, s1),
                bench::time_ms(reps, [&] { (void)t1.open(ct1, u1.a, upd1, s1.pub); }),
                kBaseline512, t1.params().g1_compressed_bytes(),
                upd1.to_bytes().size(), t1.params().g1_compressed_bytes(),
                "~80-bit"};

  const bls12::Bls12Ctx& ctx = t3.params();
  rows[1] = Row{"type-3 BLS12-381 (fast)", "bls12-381",
                bench::time_ms(reps, [&] { (void)t3.issue_update(s3, tag); }),
                bench::time_ms(reps, [&] { (void)t3.verify_update(s3.pub, upd3); }),
                bench::time_ms(reps, [&] {
                  (void)t3.seal(core::Mode::kBasic, msg, u3.pub, s3.pub, tag, rng,
                                core::KeyCheck::kSkip);
                }),
                fresh_seals(t3, u3, s3),
                bench::time_ms(reps, [&] { (void)t3.open(ct3, u3.a, upd3, s3.pub); }),
                kBaseline381, bls12::Bls381Backend::gu_wire_bytes(ctx),
                upd3.to_bytes().size(), bls12::Bls381Backend::gh_wire_bytes(ctx),
                "~128-bit"};

  // Pairing-engine sub-timings (the anatomy of one ê(P, Q)): the Miller
  // loop and final exponentiation separately, plus the line-cache effect
  // on a full pairing against a fixed Q.
  bls12::G1Point381 bp = ctx.hash_to_g1(to_bytes("bench-pair-sub"));
  const bls12::G2Point381& bq = ctx.g2_generator();
  auto prepared = ctx.prepare_g2(bq);
  double prep_ms = bench::time_ms(reps, [&] { (void)ctx.prepare_g2(bq); });
  double miller_ms =
      bench::time_ms(reps, [&] { (void)ctx.miller_loop(bp, *prepared); });
  bls12::Fp12 mval = ctx.miller_loop(bp, *prepared);
  double fexp_ms =
      bench::time_ms(reps, [&] { (void)ctx.final_exponentiation(mval); });
  double pair_ms = bench::time_ms(reps, [&] { (void)ctx.pair(bp, bq); });
  double pair_cached_ms =
      bench::time_ms(reps, [&] { (void)ctx.pair_cached(bp, bq); });

  // Point-ingestion anatomy (docs/PERF.md "BLS12-381 point ingestion"):
  // what a receiver pays per update before any pairing when no cache
  // holds the tag — hash_to_g1 of the tag and g1_from_bytes of the served
  // point — and the kernels inside them. A batch runs one kernel once on
  // each of kInputs distinct inputs. Batches interleave
  // (fastest_batch_means), so the membership test and its [r]P oracle
  // that the PERF381 gate compares see the same stretches of host load;
  // a figure is the kernel's fastest batch mean. The baselines pin
  // hash_to_g1 and g1_from_bytes as they were
  // with the [r]P membership ladder, bit-serial wide reduction and
  // square-and-multiply square root: medians of eleven runs of this same
  // block, alternated with runs of the current kernels on one host.
  constexpr double kBaselineHashToG1Us = 573.78, kBaselineG1FromBytesUs = 559.97;
  constexpr int kInputs = 64, kRounds = 15;
  std::vector<Bytes> ingest_tags, ingest_wide, ingest_encoded;
  std::vector<bls12::G1Point381> ingest_points;
  std::vector<bls12::Fq> ingest_squares;
  for (int i = 0; i < kInputs; ++i) {
    ingest_tags.push_back(to_bytes("bench-ingest-tag-" + std::to_string(i)));
    ingest_wide.push_back(hashing::oracle_bytes(
        "bench-ingest-wide", be32(static_cast<std::uint32_t>(i)), 2 * ctx.fp()->byte_len));
    const bls12::G1Point381 pt = ctx.hash_to_g1(ingest_tags.back());
    ingest_points.push_back(pt);
    ingest_encoded.push_back(ctx.g1_to_bytes(pt));
    ingest_squares.push_back(pt.y.squared());
    if (!ctx.g1_in_subgroup(pt) || !ctx.g1_mul(pt, ctx.r()).inf) {
      std::fprintf(stderr, "ingestion anatomy: hashed point failed membership\n");
      return 1;
    }
  }
  auto each_input = [&](std::function<void(size_t)> kernel) {
    return Batch{kInputs, [=] {
                   for (size_t i = 0; i < kInputs; ++i) kernel(i);
                 }};
  };
  const std::vector<double> ingest_us = fastest_batch_means(
      {each_input([&](size_t i) { (void)ctx.hash_to_g1(ingest_tags[i]); }),
       each_input([&](size_t i) { (void)ctx.g1_from_bytes(ingest_encoded[i]); }),
       each_input([&](size_t i) { (void)ctx.g1_in_subgroup(ingest_points[i]); }),
       each_input([&](size_t i) { (void)ctx.g1_mul(ingest_points[i], ctx.r()); }),
       each_input([&](size_t i) { (void)ingest_squares[i].sqrt(); }),
       each_input([&](size_t i) { (void)bls12::Fq::from_bytes_wide(ingest_wide[i]); })},
      kRounds);
  const double h2c_us = ingest_us[0], decode_us = ingest_us[1],
               subgroup_us = ingest_us[2], mul_r_us = ingest_us[3],
               sqrt_us = ingest_us[4], wide_us = ingest_us[5];

  // Base-field anatomy (docs/PERF.md "BLS12-381 base field"): the
  // products every pairing is made of, on the backend's six-limb
  // residues; the generic field::Fp2 product over the same modulus, timed
  // beside the Fq2 one for the PERF381 gate's same-run floor; and
  // gt_pow_unitary. A field or tower batch is a dependent chain (each
  // result feeds the next operation). The baselines pin these kernels as
  // they were when every coordinate was a field::Fp (so the Fp2 product
  // was the generic one): medians of eleven runs of the same batches,
  // alternated with runs of the current kernels on one host.
  //
  // The same block times the session-route anatomy: each backend's two
  // kernels for a per-message secret, on full-width secrets. seal and
  // open apply r and a either as a G_T power of the pairing or on the G_1
  // secret ladder before it (kSessionPowInGt); the pairing costs the same
  // either way, so these two kernels decide the route, and the PERF381
  // gate checks that each backend's constant picks the cheaper one.
  constexpr double kBaselineFpMulNs = 100.48, kBaselineFp2MulNs = 465.11,
                   kBaselineFp12MulUs = 10.71, kBaselineCyclotomicSqrUs = 4.61,
                   kBaselineGtPowUnitaryUs = 1852.25;
  constexpr int kFieldOps = 2048, kTowerOps = 64, kPowOps = 4;
  std::vector<bls12::Fq2> fq2_in;
  std::vector<field::Fp2> generic_in;
  for (int i = 0; i < kInputs; ++i) {
    fq2_in.push_back(bls12::Fq2(bls12::Fq::random(rng), bls12::Fq::random(rng)));
    generic_in.push_back(
        field::Fp2::from_bytes(ctx.fp(), fq2_in.back().to_bytes()));
  }
  const bls12::TowerCtx& tower = ctx.tower();
  const bls12::Gt381 gt = ctx.pair(bp, bq);
  std::vector<bls12::Gt381> gt_in;
  for (std::uint64_t k = 3; k < 11; ++k) {
    gt_in.push_back(ctx.gt_pow_unitary(gt, bls12::Scalar::from_u64(k)));
  }
  std::vector<bls12::Scalar> gt_exponents;
  for (int i = 0; i < kPowOps; ++i) {
    gt_exponents.push_back(bigint::random_bits<field::kMaxFieldLimbs>(rng, 255));
  }
  const bls12::G1Point381 route_p = ctx.hash_to_g1(to_bytes("bench-session-route"));
  const ec::G1Point& route_p512 = t1.params().base;
  const pairing::Gt route_gt512 = pairing::pair(route_p512, t1.hash_tag(tag));
  constexpr int kRoutePowOps512 = 16;
  std::vector<core::Scalar> route_secrets512;
  for (int i = 0; i < kRoutePowOps512; ++i) {
    route_secrets512.push_back(params::random_scalar(t1.params(), rng));
  }
  bls12::Fq fq_acc = fq2_in[0].re();
  bls12::Fq2 fq2_acc = fq2_in[0];
  field::Fp2 generic_acc = generic_in[0];
  bls12::Gt381 mul_acc = gt, sqr_acc = gt, pow_acc = gt;
  const std::vector<double> field_us = fastest_batch_means(
      {{kFieldOps,
        [&] {
          for (int i = 0; i < kFieldOps; ++i) fq_acc = fq_acc * fq2_in[i % kInputs].im();
        }},
       {kFieldOps,
        [&] {
          for (int i = 0; i < kFieldOps; ++i) fq2_acc = fq2_acc * fq2_in[i % kInputs];
        }},
       {kFieldOps,
        [&] {
          for (int i = 0; i < kFieldOps; ++i) {
            generic_acc = generic_acc * generic_in[i % kInputs];
          }
        }},
       {kTowerOps,
        [&] {
          for (int i = 0; i < kTowerOps; ++i) {
            mul_acc = bls12::fp12_mul(tower, mul_acc, gt_in[i % gt_in.size()]);
          }
        }},
       {kTowerOps,
        [&] {
          for (int i = 0; i < kTowerOps; ++i) {
            sqr_acc = bls12::fp12_cyclotomic_sqr(tower, sqr_acc);
          }
        }},
       {kPowOps,
        [&] {
          for (int i = 0; i < kPowOps; ++i) {
            pow_acc = ctx.gt_pow_unitary(pow_acc, gt_exponents[i]);
          }
        }},
       {kPowOps,
        [&] {
          for (int i = 0; i < kPowOps; ++i) {
            (void)ctx.g1_mul_secret(route_p, gt_exponents[i]);
          }
        }},
       {kRoutePowOps512,
        [&] {
          for (const core::Scalar& k : route_secrets512) (void)route_gt512.pow_unitary(k);
        }},
       {kRoutePowOps512,
        [&] {
          for (const core::Scalar& k : route_secrets512) (void)route_p512.mul_secret(k);
        }}},
      kRounds);
  if (fq_acc.is_zero() || fq2_acc.is_zero() || generic_acc.is_zero()) {
    std::fprintf(stderr, "field anatomy: a product chain reached zero\n");
    return 1;
  }
  const double fp_mul_ns = field_us[0] * 1e3, fp2_mul_ns = field_us[1] * 1e3,
               generic_fp2_mul_ns = field_us[2] * 1e3, fp12_mul_us = field_us[3],
               cyclotomic_sqr_us = field_us[4], gt_pow_unitary_us = field_us[5],
               g1_mul_secret_us = field_us[6], gt_pow_unitary512_us = field_us[7],
               g1_mul_secret512_us = field_us[8];
  // The kernel each backend's constant picks, over the other one: >= 1
  // when the constant picks the cheaper kernel.
  auto route_margin = [](bool pow_in_gt, double pow_us, double ladder_us) {
    return pow_in_gt ? ladder_us / pow_us : pow_us / ladder_us;
  };
  constexpr bool kPowInGt381 = bls12::Bls381Backend::kSessionPowInGt;
  constexpr bool kPowInGt512 = core::Tre512Backend::kSessionPowInGt;
  const double margin381 = route_margin(kPowInGt381, gt_pow_unitary_us, g1_mul_secret_us);
  const double margin512 =
      route_margin(kPowInGt512, gt_pow_unitary512_us, g1_mul_secret512_us);

  std::printf("%-32s | %8s | %9s | %8s | %9s | %8s | %9s | %9s | %s\n", "backend",
              "issue ms", "verify ms", "enc ms", "fresh ms", "dec ms", "update B",
              "ct-hdr B", "security");
  std::printf("---------------------------------+----------+-----------+----------+-----------+----------+-----------+-----------+---------\n");
  for (const Row& row : rows) {
    std::printf("%-32s | %8.1f | %9.1f | %8.1f | %9.1f | %8.1f | %9zu | %9zu | %s\n",
                row.name, row.issue, row.verify, row.enc, row.enc_fresh, row.dec,
                row.update_point_bytes, row.ct_header_bytes, row.security);
  }
  std::printf("\nbls12-381 speedup vs seed engine: verify %.1fx, encrypt %.1fx, "
              "decrypt %.1fx\n",
              kBaseline381.verify / rows[1].verify,
              kBaseline381.enc / rows[1].enc, kBaseline381.dec / rows[1].dec);
  std::printf("pairing anatomy: prepare_g2 %.2f ms, miller %.2f ms, "
              "final_exp %.2f ms, pair %.2f ms, pair(cached lines) %.2f ms\n",
              prep_ms, miller_ms, fexp_ms, pair_ms, pair_cached_ms);
  std::printf("ingestion anatomy: hash_to_g1 %.1f us (baseline %.1f), "
              "g1_from_bytes %.1f us (baseline %.1f), g1_in_subgroup %.1f us "
              "vs [r]P oracle %.1f us (%.2fx), fp_sqrt %.1f us, "
              "fp_from_bytes_wide %.2f us\n",
              h2c_us, kBaselineHashToG1Us, decode_us, kBaselineG1FromBytesUs,
              subgroup_us, mul_r_us, mul_r_us / subgroup_us, sqrt_us, wide_us);
  std::printf("field anatomy: Fq mul %.1f ns (baseline %.1f), Fq2 mul %.1f ns "
              "(baseline %.1f) vs field::Fp2 %.1f ns (%.2fx), fp12_mul %.2f us "
              "(baseline %.2f), cyclotomic_sqr %.2f us (baseline %.2f), "
              "gt_pow_unitary %.1f us (baseline %.1f)\n",
              fp_mul_ns, kBaselineFpMulNs, fp2_mul_ns, kBaselineFp2MulNs,
              generic_fp2_mul_ns, generic_fp2_mul_ns / fp2_mul_ns, fp12_mul_us,
              kBaselineFp12MulUs, cyclotomic_sqr_us, kBaselineCyclotomicSqrUs,
              gt_pow_unitary_us, kBaselineGtPowUnitaryUs);
  std::printf("session route: bls12-381 gt_pow_unitary %.1f us vs g1_mul_secret %.1f us, "
              "kSessionPowInGt=%d (picked kernel %.2fx cheaper); tre-512 pow_unitary "
              "%.1f us vs mul_secret %.1f us, kSessionPowInGt=%d (%.2fx)\n",
              gt_pow_unitary_us, g1_mul_secret_us, kPowInGt381, margin381,
              gt_pow_unitary512_us, g1_mul_secret512_us, kPowInGt512, margin512);

  const char* json_path = argc > 1 ? argv[1] : "BENCH_modern_curve.json";
  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f, "{\n  \"experiment\": \"E17_modern_curve\",\n");
    std::fprintf(f, "  \"message_bytes\": %zu,\n  \"reps\": %d,\n", msg.size(), reps);
    std::fprintf(f, "  \"backends\": [\n");
    for (size_t i = 0; i < 2; ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"curve\": \"%s\", "
                   "\"security\": \"%s\", "
                   "\"issue_ms\": %.3f, \"verify_ms\": %.3f, "
                   "\"encrypt_ms\": %.3f, \"encrypt_fresh_ms\": %.3f, "
                   "\"decrypt_ms\": %.3f, "
                   "\"baseline_issue_ms\": %.3f, \"baseline_verify_ms\": %.3f, "
                   "\"baseline_encrypt_ms\": %.3f, \"baseline_decrypt_ms\": %.3f, "
                   "\"update_point_bytes\": %zu, \"update_wire_bytes\": %zu, "
                   "\"ct_header_bytes\": %zu}%s\n",
                   r.name, r.curve, r.security, r.issue, r.verify, r.enc, r.enc_fresh,
                   r.dec,
                   r.baseline.issue, r.baseline.verify, r.baseline.enc,
                   r.baseline.dec, r.update_point_bytes, r.update_wire_bytes,
                   r.ct_header_bytes, i + 1 < 2 ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"pairing_anatomy_bls381\": {\"prepare_g2_ms\": %.3f, "
                 "\"miller_loop_ms\": %.3f, \"final_exp_ms\": %.3f, "
                 "\"pair_ms\": %.3f, \"pair_cached_ms\": %.3f},\n",
                 prep_ms, miller_ms, fexp_ms, pair_ms, pair_cached_ms);
    std::fprintf(f,
                 "  \"ingestion_anatomy_bls381\": {\"hash_to_g1_us\": %.2f, "
                 "\"g1_from_bytes_us\": %.2f, \"g1_in_subgroup_us\": %.2f, "
                 "\"g1_mul_r_us\": %.2f, \"fp_sqrt_us\": %.2f, "
                 "\"fp_from_bytes_wide_us\": %.3f, "
                 "\"baseline_hash_to_g1_us\": %.2f, "
                 "\"baseline_g1_from_bytes_us\": %.2f},\n",
                 h2c_us, decode_us, subgroup_us, mul_r_us, sqrt_us, wide_us,
                 kBaselineHashToG1Us, kBaselineG1FromBytesUs);
    std::fprintf(f,
                 "  \"field_anatomy_bls381\": {\"fp_mul_ns\": %.2f, "
                 "\"fp2_mul_ns\": %.2f, \"generic_fp2_mul_ns\": %.2f, "
                 "\"fp12_mul_us\": %.3f, \"cyclotomic_sqr_us\": %.3f, "
                 "\"gt_pow_unitary_us\": %.2f, \"baseline_fp_mul_ns\": %.2f, "
                 "\"baseline_fp2_mul_ns\": %.2f, \"baseline_fp12_mul_us\": %.3f, "
                 "\"baseline_cyclotomic_sqr_us\": %.3f, "
                 "\"baseline_gt_pow_unitary_us\": %.2f},\n",
                 fp_mul_ns, fp2_mul_ns, generic_fp2_mul_ns, fp12_mul_us,
                 cyclotomic_sqr_us, gt_pow_unitary_us, kBaselineFpMulNs,
                 kBaselineFp2MulNs, kBaselineFp12MulUs, kBaselineCyclotomicSqrUs,
                 kBaselineGtPowUnitaryUs);
    std::fprintf(f,
                 "  \"session_route_anatomy\": {\"bls381_gt_pow_unitary_us\": %.2f, "
                 "\"bls381_g1_mul_secret_us\": %.2f, \"bls381_session_pow_in_gt\": %s, "
                 "\"tre512_gt_pow_unitary_us\": %.2f, \"tre512_g1_mul_secret_us\": %.2f, "
                 "\"tre512_session_pow_in_gt\": %s},\n",
                 gt_pow_unitary_us, g1_mul_secret_us, kPowInGt381 ? "true" : "false",
                 gt_pow_unitary512_us, g1_mul_secret512_us,
                 kPowInGt512 ? "true" : "false");
    std::fprintf(f, "%s\n}\n", bench::metrics_json_field(2).c_str());
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
