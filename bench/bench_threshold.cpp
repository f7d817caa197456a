// E15 + E22: the t-of-n threshold beacon.
//
// E15 (kept from the original harness): k-of-n threshold vs the paper's
// §5.3.5 n-of-n multi-server design — ciphertexts and decryption stay
// EXACTLY the single-server scheme while tolerating n-k crashes, where
// n-of-n grows linearly and halts on any failure.
//
// E22 (the backend-generic beacon pipeline): DKG and dealer setup,
// partial issuance, RLC batch verification, and Lagrange aggregation
// (one gu_multiexp per quorum) swept over t ∈ {2,4,8,16} on BOTH
// curves, plus a FaultPlan liveness probe: with t-1 relabelling forgers
// among the beacon nodes the fetcher must still reach quorum, convict
// exactly the forgers, and deliver an aggregate byte-identical to the
// single-server update. Emits BENCH_threshold.json.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bls12/tre381.h"
#include "client/fetcher.h"
#include "client/simnet_source.h"
#include "core/multiserver.h"
#include "core/tre.h"
#include "hashing/drbg.h"
#include "threshold/dkg.h"
#include "threshold/threshold.h"

using namespace tre;

namespace {

struct Row {
  size_t t = 0;
  size_t n = 0;
  double dkg_ms = 0;
  double setup_ms = 0;
  double issue_ms = 0;         // one partial
  double batch_verify_ms = 0;  // n honest partials, one RLC equation
  double combine_ms = 0;       // t-partial quorum, one gu_multiexp
  bool bit_identical = false;  // aggregate == single-server update
  // FaultPlan liveness: t-1 relabelling forgers among n beacon nodes.
  bool delivered = false;
  size_t convicted = 0;
  bool exact_attribution = false;
};

template <class B>
std::vector<Row> run_backend(std::shared_ptr<const typename B::Params> params,
                             const char* label) {
  threshold::BasicThresholdScheme<B> tscheme(params);
  core::BasicTreScheme<B> scheme(params);
  hashing::HmacDrbg rng(to_bytes(std::string("bench-e22-") + label));
  const char* tag = "2030-01-01T00:00:00Z";

  std::printf("\n--- %s ---\n", label);
  std::printf("%-8s | %8s | %8s | %9s | %11s | %10s | %9s | %s\n", "t-of-n",
              "dkg ms", "setup ms", "issue ms", "batchver ms", "combine ms",
              "delivered", "convicted");
  std::printf("---------+----------+----------+-----------+-------------+--"
              "----------+-----------+----------\n");

  std::vector<Row> rows;
  for (size_t t : {size_t{2}, size_t{4}, size_t{8}, size_t{16}}) {
    Row row;
    row.t = t;
    row.n = 2 * t;
    threshold::ThresholdConfig cfg{row.n, t};

    row.dkg_ms = bench::time_ms(1, [&] {
      if (!threshold::run_dkg<B>(params, cfg, rng).ok()) std::abort();
    });
    row.setup_ms = bench::time_ms(3, [&] { (void)tscheme.setup(cfg, rng); });

    auto [key, shares] = tscheme.setup(cfg, rng);
    row.issue_ms =
        bench::time_ms(3, [&] { (void)tscheme.issue_partial(shares[0], tag); });

    std::vector<threshold::BasicPartialUpdate<B>> partials;
    for (const auto& s : shares) partials.push_back(tscheme.issue_partial(s, tag));
    row.batch_verify_ms = bench::time_ms(3, [&] {
      if (!tscheme.verify_partials_batch(key, partials, rng).empty()) std::abort();
    });

    std::vector<threshold::BasicPartialUpdate<B>> quorum(partials.begin(),
                                                         partials.begin() + t);
    row.combine_ms = bench::time_ms(3, [&] { (void)tscheme.combine(key, quorum); });

    core::BasicServerKeyPair<B> single{tscheme.recover_secret(key, shares),
                                       key.group};
    row.bit_identical = tscheme.combine(key, quorum).to_bytes() ==
                        scheme.issue_update(single, tag).to_bytes();

    // --- FaultPlan liveness: the first t-1 beacon nodes forge ------------
    server::Timeline timeline(0);
    simnet::Network net(timeline, to_bytes("e22-net"));
    simnet::FaultPlan plan(to_bytes("e22-plan"));
    net.set_fault_plan(&plan);
    simnet::BasicMirroredArchive<B> archive(params, net, timeline, row.n,
                                            simnet::LinkSpec{.base_delay = 1});
    simnet::NodeId rx = net.add_node("rx");
    for (size_t i = 0; i < row.n; ++i) {
      archive.publish_partial(i, tscheme.issue_partial(shares[i], tag));
      if (i < t - 1) {
        // A relabeller serves another tag's partial under the asked tag.
        archive.publish_partial(i, tscheme.issue_partial(shares[i], "decoy"));
        plan.set_byzantine(archive.mirror_node(i),
                           simnet::ByzantineMode::kRelabel);
      }
    }
    client::BasicSimnetSource<B> source(archive, rx,
                                        simnet::LinkSpec{.base_delay = 1});
    std::vector<size_t> order(row.n);
    for (size_t i = 0; i < row.n; ++i) order[i] = i;
    client::BasicUpdateFetcher<B> fetcher(scheme, key.as_server_public_key(),
                                          source, timeline, order,
                                          to_bytes("e22-jitter"));
    auto res = fetcher.fetch_threshold(tscheme, key, tag);
    row.delivered = res.ok() && res->update.to_bytes() ==
                                    scheme.issue_update(single, tag).to_bytes();
    if (res.ok()) {
      row.convicted = res->byzantine_nodes.size();
      // Exactly the forgers' share indices 1..t-1, nobody honest.
      row.exact_attribution = res->byzantine_nodes.size() == t - 1;
      for (size_t i = 0; i < res->byzantine_nodes.size(); ++i) {
        if (res->byzantine_nodes[i] != i + 1) row.exact_attribution = false;
      }
    }

    std::printf("%2zu-of-%-2zu | %8.2f | %8.2f | %9.3f | %11.2f | %10.2f | %9s | %zu of %zu\n",
                row.t, row.n, row.dkg_ms, row.setup_ms, row.issue_ms,
                row.batch_verify_ms, row.combine_ms,
                row.delivered ? "yes" : "NO", row.convicted, t - 1);
    rows.push_back(row);
  }
  return rows;
}

// E15: the original threshold-vs-§5.3.5 cost table (tre-512).
void run_e15_comparison() {
  auto params = params::load("tre-512");
  threshold::BasicThresholdScheme<core::Tre512Backend> ttre(params);
  core::MultiServerTre mstre(params);
  core::TreScheme scheme(params);
  hashing::HmacDrbg rng(to_bytes("bench-e15"));
  const char* tag = "2030-01-01T00:00:00Z";
  Bytes msg = rng.bytes(256);

  std::printf("\n--- E15: k-of-n vs §5.3.5 n-of-n (tre-512) ---\n");
  std::printf("%-18s | %10s | %10s | %10s | %12s | %s\n", "configuration",
              "enc ms", "dec ms", "ct bytes", "combine ms", "tolerates");
  std::printf("-------------------+------------+------------+------------+--"
              "------------+-----------\n");

  for (auto [n, k] : {std::pair<size_t, size_t>{3, 2}, {5, 3}, {9, 5}}) {
    auto [key, shares] = ttre.setup(threshold::ThresholdConfig{n, k}, rng);
    core::UserKeyPair user = scheme.user_keygen(key.group, rng);
    auto ct = scheme.encrypt(msg, user.pub, key.group, tag, rng, core::KeyCheck::kSkip);
    std::vector<threshold::BasicPartialUpdate<core::Tre512Backend>> partials;
    for (size_t i = 1; i <= k; ++i) partials.push_back(ttre.issue_partial(shares[i - 1], tag));

    double enc_ms = bench::time_ms(5, [&] {
      (void)scheme.encrypt(msg, user.pub, key.group, tag, rng, core::KeyCheck::kSkip);
    });
    double combine_ms = bench::time_ms(5, [&] { (void)ttre.combine(key, partials); });
    core::KeyUpdate update = ttre.combine(key, partials);
    double dec_ms = bench::time_ms(5, [&] { (void)scheme.decrypt(ct, user.a, update); });
    std::printf("threshold %zu-of-%zu  | %10.2f | %10.2f | %10zu | %12.2f | %zu crashes\n",
                k, n, enc_ms, dec_ms, ct.to_bytes().size(), combine_ms, n - k);

    std::vector<core::ServerKeyPair> servers;
    std::vector<core::ServerPublicKey> pubs;
    for (size_t i = 0; i < n; ++i) {
      servers.push_back(scheme.server_keygen(rng));
      pubs.push_back(servers.back().pub);
    }
    core::Scalar a = params::random_scalar(*params, rng);
    auto muser = mstre.user_key(a, pubs);
    auto mct = mstre.encrypt(msg, muser, pubs, tag, rng);
    std::vector<core::KeyUpdate> updates;
    for (const auto& s : servers) updates.push_back(scheme.issue_update(s, tag));
    double menc_ms =
        bench::time_ms(3, [&] { (void)mstre.encrypt(msg, muser, pubs, tag, rng); });
    double mdec_ms = bench::time_ms(3, [&] { (void)mstre.decrypt(mct, a, updates); });
    std::printf("§5.3.5 %zu-of-%zu    | %10.2f | %10.2f | %10zu | %12s | 0 crashes\n",
                n, n, menc_ms, mdec_ms, mct.to_bytes().size(), "-");
  }
  std::printf("\n(threshold ciphertexts and decryption never grow with n; the "
              "one-off combine cost is paid once per instant, by anyone)\n");
}

void json_rows(std::FILE* f, const char* label, const std::vector<Row>& rows,
               const char* probe_prefix, bool last) {
  const std::string calls_name =
      std::string(probe_prefix) + "threshold.multiexp.calls";
  const std::string points_name =
      std::string(probe_prefix) + "threshold.multiexp.points";
  std::fprintf(f, "    {\"backend\": \"%s\",\n     \"rows\": [\n", label);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "      {\"t\": %zu, \"n\": %zu, \"dkg_ms\": %.3f, "
                 "\"setup_ms\": %.3f, \"issue_partial_ms\": %.4f, "
                 "\"batch_verify_ms\": %.3f, \"combine_ms\": %.3f, "
                 "\"aggregate_bit_identical\": %s, \"liveness_delivered\": %s, "
                 "\"byzantine_convicted\": %zu, \"exact_attribution\": %s}%s\n",
                 r.t, r.n, r.dkg_ms, r.setup_ms, r.issue_ms, r.batch_verify_ms,
                 r.combine_ms, r.bit_identical ? "true" : "false",
                 r.delivered ? "true" : "false", r.convicted,
                 r.exact_attribution ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "     ],\n");
  std::fprintf(f,
               "     \"multiexp_calls\": %llu,\n     \"multiexp_points\": %llu}%s\n",
               static_cast<unsigned long long>(
                   obs::Registry::global().counter_value(calls_name)),
               static_cast<unsigned long long>(
                   obs::Registry::global().counter_value(points_name)),
               last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  bench::header(
      "E15/E22: t-of-n threshold beacon (DKG, batch verify, aggregation)",
      "extension: a Shamir-shared beacon keeps ciphertexts and decryption "
      "identical to the single-server scheme; any t partials aggregate "
      "byte-identically to s*H1(T), t-1 forging nodes are convicted exactly, "
      "and liveness survives n-t failures");

  auto rows512 =
      run_backend<core::Tre512Backend>(params::load("tre-512"), "tre-512");
  auto rows381 =
      run_backend<bls12::Bls381Backend>(bls12::Bls12Ctx::get(), "bls12-381");
  run_e15_comparison();

  bool all_ok = true;
  for (const auto* rows : {&rows512, &rows381}) {
    for (const Row& r : *rows) {
      if (!r.bit_identical || !r.delivered || !r.exact_attribution) all_ok = false;
    }
  }
  const std::uint64_t multiexp_calls =
      obs::Registry::global().counter_value("core.threshold.multiexp.calls") +
      obs::Registry::global().counter_value("core.bls381.threshold.multiexp.calls");
  if (multiexp_calls == 0) all_ok = false;

  std::printf("\n(aggregation IS a multi-exponentiation: %llu gu/gh multiexp "
              "calls routed through the Pippenger engine; every aggregate "
              "byte-identical to the single-server update, every forger "
              "convicted by RLC bisection)\n",
              static_cast<unsigned long long>(multiexp_calls));

  const char* json_path = argc > 1 ? argv[1] : "BENCH_threshold.json";
  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f, "{\n  \"experiment\": \"E22_threshold_beacon\",\n");
    std::fprintf(f, "  \"quorums\": [2, 4, 8, 16],\n");
    std::fprintf(f, "  \"backends\": [\n");
    json_rows(f, "tre-512", rows512, "core.", /*last=*/false);
    json_rows(f, "bls12-381", rows381, "core.bls381.", /*last=*/true);
    std::fprintf(f, "  ],\n  \"all_invariants_hold\": %s,\n",
                 all_ok ? "true" : "false");
    std::fprintf(f, "%s\n}\n", bench::metrics_json_field(2).c_str());
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return all_ok ? 0 : 1;
}
