// The four workloads of the end-to-end benchmark (README.md says why each
// exists). Each is a closed loop driven from this process: an op starts
// only after the previous one on the same thread has completed.
#pragma once

#include <time.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bls12/bls12.h"
#include "trace.h"

namespace e2e {

/// When a window ends: at a deadline, or after a fixed op count (the
/// determinism checks use the count so two runs do identical work).
struct Limit {
  std::uint64_t deadline_ns = 0;
  std::uint64_t max_ops = 0;  // > 0 selects op-count mode
  bool done(std::uint64_t ops_started, std::uint64_t now_ns) const {
    return max_ops > 0 ? ops_started >= max_ops : now_ns >= deadline_ns;
  }
};

/// Latency samples in fixed memory (~115 KB, allocated up front), so the
/// process's peak RSS depends neither on the op count nor on the slowest
/// op. Buckets are log-linear, 1/256 of a power of two wide (exact below
/// 256 ns; samples beyond 2^36 ns share the last bucket), and keep the
/// count and the sum of their samples. A percentile is the mean of the
/// samples in the bucket holding that rank: a measured value within 0.4%
/// of the exact order statistic.
class LatencyRecorder {
 public:
  LatencyRecorder();
  void record(std::uint64_t ns);
  void merge(const LatencyRecorder& o);
  std::uint64_t count() const { return count_; }
  double sum_ns() const { return static_cast<double>(sum_); }
  /// Nearest-rank percentile, 0 <= q <= 1 (q = 0 gives the minimum);
  /// 0 when empty.
  double percentile(double q) const;

 private:
  static constexpr unsigned kSubBits = 8;
  static constexpr unsigned kMaxBits = 36;
  static size_t bucket(std::uint64_t ns);

  std::vector<std::uint64_t> counts_;
  std::vector<std::uint64_t> sums_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// Raw results of one timed window.
struct Window {
  LatencyRecorder latency;      // one sample per op (catchup: per page)
  std::uint64_t ops = 0;        // checked ops completed (catchup: updates)
  std::uint64_t attempted = 0;  // same unit as ops
  std::uint64_t failed = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::vector<double> gen_cpu_s;  // per load-generating thread
  std::string first_failure;

  void fail(std::uint64_t units, const std::string& why) {
    failed += units;
    if (first_failure.empty()) first_failure = why;
  }
  void merge(Window&& o);
};

/// The workload's own inputs for the kernel price list.
struct PriceInputs {
  std::vector<std::string> tags;       // hash-to-curve inputs
  tre::bls12::G1Point381 g1;           // a G1 argument the workload pairs
  tre::bls12::G2Point381 g2;           // a long-lived G2 key it pairs against
  tre::Bytes g1_wire;                  // a served point, compressed
  size_t multiexp_points = 0;          // points per multi-exp call here
  bool client_decodes = true;          // the client parses every reply item
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// All one-off work, serially on the calling thread: keys or DKG,
  /// archive issuance, daemon boot, connections, warm-up. Throws on any
  /// failed check.
  virtual void setup(std::uint64_t seed, unsigned rep) = 0;

  /// Runs one window. With `trace`, spans and transport accounting are on.
  virtual void run(Window& w, const Limit& limit, bool trace) = 0;

  virtual std::vector<clockid_t> daemon_clocks() const = 0;
  virtual bool daemon_crashed() const = 0;
  virtual std::vector<const Tracer*> tracers() const = 0;
  /// Transport accounting summed over every decorator of the workload.
  virtual TracedSource::Counts transport_counts() const = 0;
  virtual PriceInputs price_inputs() const = 0;

  virtual unsigned generator_threads() const { return 1; }
  virtual unsigned connections() const = 0;
  /// What ops_per_s counts, and what one latency sample covers.
  virtual const char* op_unit() const = 0;
  virtual const char* latency_unit() const { return op_unit(); }
};

/// Hardware threads this process may run on (what `nproc` prints).
unsigned online_cpus();

inline constexpr const char* kWorkloadNames[] = {"release", "catchup", "beacon",
                                                 "serve"};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace e2e
