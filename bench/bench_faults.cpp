// E18: Byzantine-resilient update distribution under scripted faults.
//
// Sweeps message loss rate x Byzantine-mirror fraction (up to all but
// one replica misbehaving) over several simulation seeds. Every
// receiver runs the hardened UpdateFetcher pipeline — verify before
// accept, backoff with jitter, failover rotation, health scoring — and
// the harness independently re-verifies every accepted update against
// the server public key. The headline number must be zero forged or
// corrupted acceptances in every cell; the cost of the faults shows up
// as availability latency and rejected-reply counts instead.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "client/fetcher.h"
#include "client/simnet_source.h"
#include "core/tre.h"
#include "hashing/drbg.h"

int main(int argc, char** argv) {
  using namespace tre;
  bench::header("E18: fault-injected mirror fetch (simulated WAN, tre-toy-96)",
                "robustness: self-authenticating updates (paper §2.4) let "
                "receivers survive lossy links and Byzantine mirrors with "
                "one honest replica — forged updates are rejected, never "
                "accepted");

  auto params = params::load("tre-toy-96");
  core::TreScheme scheme(params);
  hashing::HmacDrbg rng(to_bytes("bench-e18"));
  core::ServerKeyPair server = scheme.server_keygen(rng);
  const core::KeyUpdate genuine = scheme.issue_update(server, "T-release");
  const core::KeyUpdate stale = scheme.issue_update(server, "T-stale");

  constexpr size_t kMirrors = 4;
  constexpr size_t kReceivers = 24;
  constexpr int kSeeds = 3;
  const simnet::ByzantineMode kMix[] = {
      simnet::ByzantineMode::kBitFlip, simnet::ByzantineMode::kRelabel,
      simnet::ByzantineMode::kGarbage, simnet::ByzantineMode::kDrop};

  std::printf("%-6s | %-10s | %9s | %9s | %9s | %9s | %8s | %6s | %5s | %5s\n",
              "loss", "byzantine", "delivered", "p50 avail", "p95 avail",
              "rejected", "forged", "garble", "relbl", "forge");
  std::printf("-------+------------+-----------+-----------+-----------+-----------"
              "+----------+--------+-------+------\n");

  struct Row {
    double loss;
    size_t byz;
    size_t delivered, expected;
    std::int64_t p50, p95;
    std::uint64_t rejected, forged;
    // Per-cause rejection deltas, read back from the global registry
    // (client.rejected.*).
    std::uint64_t rej_parse, rej_tag, rej_sig;
  };
  std::vector<Row> rows;
  bool all_clean = true;

  obs::Registry& greg = obs::Registry::global();
  auto rejected_by_cause = [&greg] {
    return std::array<std::uint64_t, 3>{greg.counter_value("client.rejected.parse"),
                                        greg.counter_value("client.rejected.tag"),
                                        greg.counter_value("client.rejected.sig")};
  };

  for (double loss : {0.0, 0.25, 0.5}) {
    for (size_t byz : {size_t{0}, size_t{2}, kMirrors - 1}) {
      std::vector<std::int64_t> avail;
      std::uint64_t rejected = 0, forged = 0;
      size_t expected = 0;
      const std::array<std::uint64_t, 3> cause_base = rejected_by_cause();

      for (int seed = 0; seed < kSeeds; ++seed) {
        std::string tag = std::string("s").append(std::to_string(seed));
        server::Timeline timeline(0);
        simnet::Network net(timeline, to_bytes("e18-net-" + tag));
        simnet::FaultPlan plan(to_bytes("e18-plan-" + tag));
        net.set_fault_plan(&plan);
        simnet::MirroredArchive cluster(
            params, net, timeline, kMirrors,
            simnet::LinkSpec{.base_delay = 1, .jitter = 2});
        for (size_t m = 0; m < byz; ++m) {
          plan.set_byzantine(cluster.mirror_node(m), kMix[m % 4]);
        }
        cluster.publish(stale);  // relabel ammunition predates the release
        timeline.schedule(10, [&] { cluster.publish(genuine); });

        client::FetcherConfig cfg;
        cfg.base_backoff = 2;
        cfg.reply_timeout = 12;  // > worst-case jittered RTT
        cfg.failover_after = 2;
        cfg.attempts_per_tag = 160;  // worst cell: 50% loss each way AND
                                     // 3 of 4 replicas hostile
        std::vector<std::unique_ptr<client::SimnetSource>> sources;
        std::vector<std::unique_ptr<client::UpdateFetcher>> fetchers;
        for (size_t i = 0; i < kReceivers; ++i) {
          ++expected;
          simnet::NodeId rx = net.add_node("rx" + std::to_string(i));
          std::vector<size_t> order(kMirrors);
          for (size_t m = 0; m < kMirrors; ++m) order[m] = (i + m) % kMirrors;
          sources.push_back(std::make_unique<client::SimnetSource>(
              cluster, rx,
              simnet::LinkSpec{.base_delay = 2, .jitter = 1, .loss = loss}));
          fetchers.push_back(std::make_unique<client::UpdateFetcher>(
              scheme, server.pub, *sources.back(), timeline, order,
              to_bytes("e18-rx-" + tag + "-" + std::to_string(i)), cfg));
          client::UpdateFetcher* f = fetchers.back().get();
          timeline.schedule(10, [&, f] {
            f->fetch_verified({"T-release"}, [&](const client::FetchResult& r) {
              // Independent re-check: the pipeline may only deliver the
              // genuine self-authenticating update, bit for bit.
              if (!scheme.verify_update(server.pub, r.update) ||
                  !(r.update == genuine)) {
                ++forged;
              }
              avail.push_back(r.completed_at - 10);
              rejected += r.stats.total_rejected();
            });
          });
        }
        timeline.advance_to(60000);
      }

      std::sort(avail.begin(), avail.end());
      const std::array<std::uint64_t, 3> cause_now = rejected_by_cause();
      Row row{loss,
              byz,
              avail.size(),
              expected,
              avail.empty() ? -1 : avail[avail.size() / 2],
              avail.empty() ? -1 : avail[avail.size() * 95 / 100],
              rejected,
              forged,
              cause_now[0] - cause_base[0],
              cause_now[1] - cause_base[1],
              cause_now[2] - cause_base[2]};
      rows.push_back(row);
      if (forged != 0 || avail.size() != expected) all_clean = false;
      std::printf("%-6.2f | %zu of %zu     | %4zu/%-4zu | %7lld s | %7lld s | %8llu | %6llu | %6llu | %5llu | %5llu\n",
                  loss, byz, kMirrors, row.delivered, row.expected,
                  static_cast<long long>(row.p50), static_cast<long long>(row.p95),
                  static_cast<unsigned long long>(row.rejected),
                  static_cast<unsigned long long>(row.forged),
                  static_cast<unsigned long long>(row.rej_parse),
                  static_cast<unsigned long long>(row.rej_tag),
                  static_cast<unsigned long long>(row.rej_sig));
    }
  }

  std::printf("\n(forged must be 0 everywhere: integrity never degrades under "
              "faults — only latency and wasted replies do; 'rejected' counts "
              "Byzantine/corrupt replies the verify gate turned away; the "
              "garble/relbl/forge split is the registry's client.rejected.* "
              "parse/tag/sig attribution)\n");

  const char* json_path = argc > 1 ? argv[1] : "BENCH_faults.json";
  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f, "{\n  \"experiment\": \"E18_fault_injection\",\n");
    std::fprintf(f, "  \"params\": \"tre-toy-96\",\n");
    std::fprintf(f, "  \"mirrors\": %zu,\n  \"receivers_per_seed\": %zu,\n  \"seeds\": %d,\n",
                 kMirrors, kReceivers, kSeeds);
    std::fprintf(f, "  \"cells\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"loss\": %.2f, \"byzantine_mirrors\": %zu, "
                   "\"delivered\": %zu, \"expected\": %zu, "
                   "\"p50_availability_s\": %lld, \"p95_availability_s\": %lld, "
                   "\"rejected_replies\": %llu, \"forged_accepts\": %llu, "
                   "\"rejected_parse\": %llu, \"rejected_tag\": %llu, "
                   "\"rejected_sig\": %llu}%s\n",
                   r.loss, r.byz, r.delivered, r.expected,
                   static_cast<long long>(r.p50), static_cast<long long>(r.p95),
                   static_cast<unsigned long long>(r.rejected),
                   static_cast<unsigned long long>(r.forged),
                   static_cast<unsigned long long>(r.rej_parse),
                   static_cast<unsigned long long>(r.rej_tag),
                   static_cast<unsigned long long>(r.rej_sig),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"zero_forged_everywhere\": %s,\n",
                 all_clean ? "true" : "false");
    std::fprintf(f, "%s\n}\n", bench::metrics_json_field(2).c_str());
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return all_clean ? 0 : 1;
}
