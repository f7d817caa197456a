// Contention test for the TRE core's memoization caches: many threads
// share ONE TreScheme (and therefore one Cache) while exercising every
// cache-touching path — tag hashing, comb tables, key-check memoization,
// pair-base and Miller-line caches — concurrently. Correctness is
// asserted functionally (every decrypt round-trips, racing ciphertexts
// match a serial run byte for byte); the data-race proof is TSan's, under
// -DTRE_SANITIZE=thread (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "core/tre.h"
#include "hashing/drbg.h"
#include "obs/metrics.h"

namespace tre::core {
namespace {

TEST(SharedSchemeContention, EncryptDecryptIssueAcrossThreads) {
  TreScheme scheme(params::load("tre-toy-96"));  // one shared cache
  hashing::HmacDrbg rng(to_bytes("contention-seed"));
  ServerKeyPair server = scheme.server_keygen(rng);
  UserKeyPair user = scheme.user_keygen(server.pub, rng);

  // Few distinct tags: threads collide on the same cache slots, which is
  // the interesting schedule for TSan.
  const std::vector<std::string> tags = {"T-a", "T-b", "T-c"};
  std::vector<KeyUpdate> updates;
  for (const auto& t : tags) updates.push_back(scheme.issue_update(server, t));

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 6;
  std::atomic<int> failures{0};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      hashing::HmacDrbg local_rng(to_bytes("worker-" + std::to_string(w)));
      for (int i = 0; i < kItersPerThread; ++i) {
        size_t which = static_cast<size_t>((w + i) % tags.size());
        const std::string& tag = tags[which];
        switch ((w + i) % 4) {
          case 0: {  // basic roundtrip: tag/comb/pair-base/line caches
            Bytes msg = to_bytes("m-" + std::to_string(w) + "-" + std::to_string(i));
            SealedCiphertext ct =
                scheme.seal(Mode::kBasic, msg, user.pub, server.pub, tag, local_rng);
            if (scheme.open(ct, user.a, updates[which], server.pub) != msg) ++failures;
            break;
          }
          case 1: {  // FO roundtrip: adds the re-encryption check path
            Bytes msg = to_bytes("fo-" + std::to_string(i));
            SealedCiphertext ct =
                scheme.seal(Mode::kFo, msg, user.pub, server.pub, tag, local_rng);
            auto out = scheme.open(ct, user.a, updates[which], server.pub);
            if (!out || *out != msg) ++failures;
            break;
          }
          case 2: {  // server-side bulk issuance on the caller thread
            KeyUpdate upd = scheme.issue_update(server, tag);
            if (!scheme.verify_update(server.pub, upd)) ++failures;
            break;
          }
          default: {  // the memoized receiver-key pairing check
            if (!scheme.verify_user_public_key(server.pub, user.pub)) ++failures;
            break;
          }
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(SharedSchemeContention, IssueUpdatesPoolSharesOneCache) {
  TreScheme scheme(params::load("tre-toy-96"));
  hashing::HmacDrbg rng(to_bytes("pool-seed"));
  ServerKeyPair server = scheme.server_keygen(rng);

  std::vector<std::string> tags;
  for (int i = 0; i < 24; ++i) tags.push_back("pool-T" + std::to_string(i));

  // The internal thread pool and an external caller thread hammer the
  // same scheme at once.
  std::vector<KeyUpdate> updates;
  std::thread external([&] {
    for (int i = 0; i < 8; ++i) {
      (void)scheme.issue_update(server, tags[static_cast<size_t>(i) % tags.size()]);
    }
  });
  updates = scheme.issue_updates(server, tags, /*threads=*/4);
  external.join();

  ASSERT_EQ(updates.size(), tags.size());
  for (size_t i = 0; i < tags.size(); ++i) {
    EXPECT_EQ(updates[i].tag, tags[i]);
    EXPECT_TRUE(scheme.verify_update(server.pub, updates[i]));
  }
}

// One unit of work with its own DRBG: the ciphertext it produces is a
// pure function of (seed, msg, tag), independent of which thread runs it
// or what the shared caches held at the time.
struct SealJob {
  std::string seed;
  Bytes msg;
  size_t tag;  // index into the shared tag list
};

TEST(SharedSchemeContention, MixedSealOpenIssueBitIdentical) {
  // The snapshot caches must be a pure concurrency substrate: a cold
  // shared scheme hammered by racing threads and a warm serial scheme
  // must emit byte-identical ciphertexts for the same per-job DRBG seeds.
  auto params = params::load("tre-toy-96");
  hashing::HmacDrbg key_rng(to_bytes("bit-identical-keys"));
  TreScheme keygen_scheme(params);
  ServerKeyPair server = keygen_scheme.server_keygen(key_rng);
  UserKeyPair user = keygen_scheme.user_keygen(server.pub, key_rng);

  const std::vector<std::string> tags = {"epoch-1", "epoch-2", "epoch-3"};
  constexpr int kThreads = 8;
  constexpr int kJobsPerThread = 4;
  std::vector<SealJob> jobs;
  for (int j = 0; j < kThreads * kJobsPerThread; ++j) {
    jobs.push_back(SealJob{"job-seed-" + std::to_string(j),
                           to_bytes("payload-" + std::to_string(j)),
                           static_cast<size_t>(j) % tags.size()});
  }

  TreScheme serial(params);
  std::vector<Bytes> reference(jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    hashing::HmacDrbg rng(to_bytes(jobs[j].seed));
    reference[j] = serial
                       .seal(Mode::kBasic, jobs[j].msg, user.pub, server.pub,
                             tags[jobs[j].tag], rng)
                       .to_bytes();
  }

  // Concurrent run: one cold shared scheme, every thread also opening
  // ciphertexts and issuing updates so all five caches warm up racily.
  TreScheme shared(params);
  std::vector<KeyUpdate> updates;
  for (const auto& t : tags) updates.push_back(shared.issue_update(server, t));
  std::vector<Bytes> concurrent(jobs.size());
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kJobsPerThread; ++i) {
        const size_t j = static_cast<size_t>(w * kJobsPerThread + i);
        hashing::HmacDrbg rng(to_bytes(jobs[j].seed));
        SealedCiphertext ct = shared.seal(Mode::kBasic, jobs[j].msg, user.pub, server.pub,
                                          tags[jobs[j].tag], rng);
        concurrent[j] = ct.to_bytes();
        if (shared.open(ct, user.a, updates[jobs[j].tag], server.pub) != jobs[j].msg) {
          failures.fetch_add(1);
        }
        if (i == 0) {  // keep the issue/verify paths in the race too
          KeyUpdate upd = shared.issue_update(server, tags[jobs[j].tag]);
          if (!shared.verify_update(server.pub, upd)) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : workers) t.join();

  EXPECT_EQ(failures.load(), 0);
  for (size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(concurrent[j], reference[j]) << "job " << j << " diverged";
  }
}

TEST(PoolContention, ConcurrentParallelForCallers) {
  // Several external threads drive the persistent pool at once; each
  // loop's index space must still be covered exactly once.
  constexpr int kCallers = 4;
  constexpr size_t kN = 2'000;
  std::vector<std::vector<std::atomic<std::uint32_t>>> hits(kCallers);
  for (auto& h : hits) {
    h = std::vector<std::atomic<std::uint32_t>>(kN);
  }
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 3; ++round) {
        tre::parallel_for(kN, [&, c](size_t i) {
          hits[static_cast<size_t>(c)][i].fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<size_t>(c)][i].load(), 3u)
          << "caller " << c << " index " << i;
    }
  }
}

TEST(RegistryContention, LockWaitHistogramIsPublished) {
  // The built-in registry.lock_wait histogram exists from birth and
  // appears in every JSON snapshot, even before any contention.
  obs::Registry reg;
  EXPECT_NE(reg.to_json().find("\"registry.lock_wait\""), std::string::npos);
  // It is addressable like any other histogram (and is the same object).
  obs::Histogram& h = reg.histogram("registry.lock_wait");
  h.record(42);
  EXPECT_EQ(reg.histogram("registry.lock_wait").count(), 1u);
}

TEST(RegistryContention, InstrumentsAndSpansUnderConcurrentWriters) {
  // The obs:: layer's thread-safety claims, on trial before TSan: racing
  // registration of the same and of fresh names, relaxed-atomic updates
  // to shared instruments, Span thread-local batches flushing into the
  // global registry, and JSON snapshots taken mid-flight.
  obs::Registry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      obs::Counter& c = reg.counter("shared.counter");
      obs::Gauge& g = reg.gauge("shared.gauge");
      obs::Histogram& h = reg.histogram("shared.hist");
      obs::HistogramProbe span_probe("concurrency.span_ns");
      for (int i = 0; i < kIters; ++i) {
        c.add();
        g.add(w % 2 == 0 ? 1 : -1);
        h.record(static_cast<std::uint64_t>(i));
        obs::Span span(span_probe);
        if (i % 512 == 0) (void)reg.to_json();
        reg.counter("per-thread." + std::to_string(w)).add();
      }
      obs::flush_this_thread();
    });
  }
  for (auto& t : workers) t.join();

  constexpr std::uint64_t kTotal = std::uint64_t{kThreads} * kIters;
  EXPECT_EQ(reg.counter_value("shared.counter"), kTotal);
  EXPECT_EQ(reg.gauge_value("shared.gauge"), 0);  // 4 up-threads, 4 down
  EXPECT_EQ(reg.histogram("shared.hist").count(), kTotal);
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(reg.counter_value("per-thread." + std::to_string(w)),
              std::uint64_t{kIters});
  }
  // Every thread flushed before joining, so the global histogram holds
  // one sample per span.
  EXPECT_EQ(obs::Registry::global().histogram("concurrency.span_ns").count(),
            kTotal);
}

}  // namespace
}  // namespace tre::core
