// obs:: instrument semantics, registry behaviour, Span batching and the
// JSON snapshot.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace tre::obs {
namespace {

TEST(Counter, AddValueReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SignedSetAddReset) {
  Gauge g;
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
  g.add(10);
  EXPECT_EQ(g.value(), 3);
  g.add(-3);
  EXPECT_EQ(g.value(), 0);
  g.set(1);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(Histogram, BucketOfIsBitWidth) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of((std::uint64_t{1} << 32) - 1), 32u);
  EXPECT_EQ(Histogram::bucket_of(std::uint64_t{1} << 32), 33u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64u);
  EXPECT_EQ(Histogram::kBuckets, 65u);  // every bucket_of result is in range
}

TEST(Histogram, BucketBoundIsLargestAdmitted) {
  EXPECT_EQ(Histogram::bucket_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_bound(1), 1u);
  EXPECT_EQ(Histogram::bucket_bound(2), 3u);
  EXPECT_EQ(Histogram::bucket_bound(3), 7u);
  EXPECT_EQ(Histogram::bucket_bound(64), ~std::uint64_t{0});
  for (size_t b = 1; b < 64; ++b) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_bound(b)), b);
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_bound(b) + 1), b + 1);
  }
}

TEST(Histogram, RecordCountSumBuckets) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  h.record(0);
  h.record(5);   // bucket 3
  h.record(6);   // bucket 3
  h.record(100); // bucket 7
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 111u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(3), 2u);
  EXPECT_EQ(h.bucket(7), 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.bucket(3), 0u);
}

TEST(Histogram, MergeAddsDeltas) {
  Histogram h;
  h.record(5);
  std::uint64_t deltas[Histogram::kBuckets] = {};
  deltas[3] = 2;  // two more samples in [4, 8)
  deltas[0] = 1;  // one zero
  h.merge(deltas, 3, 13);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 18u);
  EXPECT_EQ(h.bucket(3), 3u);
  EXPECT_EQ(h.bucket(0), 1u);
}

TEST(Histogram, QuantileBounds) {
  Histogram h;
  EXPECT_EQ(h.quantile_bound(0.5), 0u);  // empty
  for (int i = 0; i < 90; ++i) h.record(3);    // bucket 2, bound 3
  for (int i = 0; i < 10; ++i) h.record(1000); // bucket 10, bound 1023
  EXPECT_EQ(h.quantile_bound(0.5), 3u);
  EXPECT_EQ(h.quantile_bound(0.90), 3u);
  EXPECT_EQ(h.quantile_bound(0.95), 1023u);
  EXPECT_EQ(h.quantile_bound(1.0), 1023u);

  // Four samples: p95 and p99 need the ceiling of q·4 = 3.8, 3.96 — the
  // fourth sample, not the third.
  Histogram tail;
  for (int i = 0; i < 3; ++i) tail.record(100);  // bucket 7, bound 127
  tail.record(1000000);                          // bucket 20, bound 2^20 - 1
  EXPECT_EQ(tail.quantile_bound(0.50), 127u);
  EXPECT_EQ(tail.quantile_bound(0.75), 127u);
  EXPECT_EQ(tail.quantile_bound(0.95), 1048575u);
  EXPECT_EQ(tail.quantile_bound(0.99), 1048575u);
}

TEST(RegistryTest, NamesAreStableAndUnique) {
  Registry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  Counter& c = reg.counter("y");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.add(3);
  EXPECT_EQ(reg.counter_value("x"), 3u);
  // Counter, gauge and histogram namespaces are independent.
  Gauge& g = reg.gauge("x");
  g.set(-1);
  EXPECT_EQ(reg.gauge_value("x"), -1);
  EXPECT_EQ(reg.counter_value("x"), 3u);
  (void)reg.histogram("x");
}

TEST(RegistryTest, UnregisteredNamesReadZero) {
  Registry reg;
  EXPECT_EQ(reg.counter_value("never.registered"), 0u);
  EXPECT_EQ(reg.gauge_value("never.registered"), 0);
}

TEST(RegistryTest, ResetZeroesEverythingKeepsHandles) {
  Registry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  Histogram& h = reg.histogram("h");
  c.add(5);
  g.set(5);
  h.record(5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
  c.add();  // handle still live after reset
  EXPECT_EQ(reg.counter_value("c"), 1u);
}

TEST(RegistryTest, JsonSnapshotShape) {
  Registry reg;
  reg.counter("requests").add(7);
  reg.gauge("depth").set(-2);
  Histogram& h = reg.histogram("lat_ns");
  h.record(100);
  h.record(200);
  std::string json = reg.to_json();
  // Spot-check the documented shape without a JSON parser.
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"requests\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"depth\": -2"), std::string::npos);
  EXPECT_NE(json.find("\"lat_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"sum\": 300"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(RegistryTest, JsonIndentAppliesMargin) {
  Registry reg;
  reg.counter("c").add(1);
  std::string json = reg.to_json(4);
  EXPECT_EQ(json.rfind("    {", 0), 0u) << json;
  // Every line carries the margin.
  for (size_t pos = json.find('\n'); pos != std::string::npos;
       pos = json.find('\n', pos + 1)) {
    if (pos + 1 < json.size()) {
      EXPECT_EQ(json.compare(pos + 1, 4, "    "), 0) << "line at " << pos;
    }
  }
}

TEST(RegistryTest, JsonEscapesNames) {
  Registry reg;
  reg.counter("quote\"back\\slash").add(1);
  std::string json = reg.to_json();
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos) << json;
}

TEST(Probes, CounterProbeTargetsGlobalRegistry) {
  const char* name = "test_obs.counter_probe";
  std::uint64_t before = Registry::global().counter_value(name);
  CounterProbe probe(name);
  probe.add();
  probe.add(9);
  std::uint64_t after = Registry::global().counter_value(name);
  EXPECT_EQ(after - before, 10u);
}

TEST(Probes, SpanBatchFlushesOnDemand) {
  const char* name = "test_obs.span_flush";
  HistogramProbe probe(name);
  constexpr int kSpans = 150;  // crosses the internal flush threshold
  for (int i = 0; i < kSpans; ++i) {
    Span span(probe);
  }
  flush_this_thread();
  EXPECT_EQ(Registry::global().histogram(name).count(),
            static_cast<std::uint64_t>(kSpans));
}

TEST(Probes, SpanStopIsIdempotent) {
  const char* name = "test_obs.span_stop";
  HistogramProbe probe(name);
  {
    Span span(probe);
    span.stop();
    span.stop();  // second stop and the destructor must not re-record
  }
  flush_this_thread();
  EXPECT_EQ(Registry::global().histogram(name).count(), 1u);
}

TEST(Probes, SnapshotFlushesCallingThread) {
  // to_json is documented to flush the calling thread's Span batch, so a
  // snapshot taken right after a burst of spans already includes them.
  const char* name = "test_obs.span_snapshot";
  HistogramProbe probe(name);
  {
    Span span(probe);
  }
  std::string json = Registry::global().to_json();
  EXPECT_EQ(Registry::global().histogram(name).count(), 1u);
  EXPECT_NE(json.find("test_obs.span_snapshot"), std::string::npos);
}

TEST(Probes, FlushWithNothingPendingIsSafe) {
  flush_this_thread();
  flush_this_thread();
}

}  // namespace
}  // namespace tre::obs
