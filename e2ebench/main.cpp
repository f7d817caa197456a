// End-to-end BLS12-381 benchmark: seal → issue → tred serve →
// socket fetch → verify → open, in four workloads (README.md).
//
//   e2e_bench --workload W --seed N --seconds S --trace 0|1
//              [--ops N] [--spans FILE] [--rev REV]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced
// half-window, then a traced half-window with spans and per-layer
// attribution, then the kernel price list. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Exit code 1
// when any check fails.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bls12/bls12.h"
#include "common/health.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "selftest/selftest.h"
#include "workloads.h"

namespace {

using e2e::mono_ns;

// setup_s is the median of at least kMinSetupReps complete set-ups, and of
// more while their total is under kSetupBudgetS: a cheap set-up is a short
// sample of the host's speed, so it is repeated more, until the set-ups
// together span several of the host's second-to-second swings.
constexpr unsigned kMinSetupReps = 3;
constexpr unsigned kMaxSetupReps = 25;
constexpr double kSetupBudgetS = 4.0;
constexpr const char* P = "core.bls381.";

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::uint64_t ops = 0;
  std::string spans_path;
  std::string rev = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload "
               "release|catchup|beacon|serve --seed N --seconds S --trace 0|1 "
               "[--ops N] [--spans FILE] [--rev REV]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (!(a.seconds > 0)) usage("--seconds must be positive");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--ops") {
      a.ops = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--spans") {
      a.spans_path = v;
    } else if (k == "--rev") {
      a.rev = v;
    } else {
      usage(("unknown flag " + k).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad number for " + k).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// Fixed work in the benchmark's own code, timed before and after each run
/// as a note on host speed; it is only printed. A chain of 6x6-limb
/// (384-bit) schoolbook multiplies with carries, the shape of the field
/// kernels: a dependent chain of single 64-bit multiplies hardly slows
/// down when the host slows multiprecision arithmetic, this one does.
double reference_loop_ns_per_iter() {
  constexpr int kIters = 1'000'000;
  std::array<std::uint64_t, 6> a = {0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL,
                                    0xa4093822299f31d0ULL, 0x082efa98ec4e6c89ULL,
                                    0x452821e638d01377ULL, 0xbe5466cf34e90c6cULL};
  const std::array<std::uint64_t, 6> b = {0xc0ac29b7c97c50ddULL, 0x3f84d5b5b5470917ULL,
                                          0x9216d5d98979fb1bULL, 0xd1310ba698dfb5acULL,
                                          0x2ffd72dbd01adfb7ULL, 0xb8e1afed6a267e96ULL};
  const std::uint64_t t0 = mono_ns();
  for (int i = 0; i < kIters; ++i) {
    std::array<std::uint64_t, 12> t{};
    for (size_t x = 0; x < 6; ++x) {
      std::uint64_t carry = 0;
      for (size_t y = 0; y < 6; ++y) {
        const unsigned __int128 p =
            static_cast<unsigned __int128>(a[x]) * b[y] + t[x + y] + carry;
        t[x + y] = static_cast<std::uint64_t>(p);
        carry = static_cast<std::uint64_t>(p >> 64);
      }
      t[x + 6] = carry;
    }
    for (size_t k = 0; k < 6; ++k) a[k] = t[k] ^ t[k + 6];
  }
  volatile std::uint64_t sink = a[0];
  (void)sink;
  return static_cast<double>(mono_ns() - t0) / kIters;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}}";
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Peak resident set of this process image: VmHWM. getrusage's ru_maxrss
/// would also do, except that Linux carries it across execve, so it can
/// report the launching process's peak instead of this one's.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::uint64_t counter(const std::string& name) {
  return tre::obs::Registry::global().counter_value(name);
}

struct HistSum {
  double count = 0;
  double sum_ns = 0;
  double mean_ns() const { return ratio(sum_ns, count); }
};

HistSum hist(const std::string& name) {
  tre::obs::Histogram& h = tre::obs::Registry::global().histogram(name);
  return {static_cast<double>(h.count()), static_cast<double>(h.sum())};
}

/// Microseconds per call of `fn`: the fastest of seven batches of at
/// least `min_calls` calls and ~12 ms each, so a burst of host
/// interference during one batch does not set the unit cost.
template <class F>
double time_us(F&& fn, size_t min_calls = 3) {
  fn();  // first call outside the timing (lazy tables, page faults)
  double best = 0;
  for (int batch = 0; batch < 7; ++batch) {
    size_t calls = 0;
    const std::uint64_t t0 = mono_ns();
    std::uint64_t t = t0;
    while (calls < min_calls || t - t0 < 12'000'000) {
      fn();
      ++calls;
      t = mono_ns();
    }
    const double us = static_cast<double>(t - t0) / 1e3 / static_cast<double>(calls);
    if (batch == 0 || us < best) best = us;
  }
  return best;
}

/// Unit costs of the kernel layers, timed on the workload's own inputs.
struct UnitCosts {
  double hash_to_g1_us = 0;
  double miller_loop_us = 0;
  double final_exp_us = 0;
  double g1_decode_us = 0;
  double multiexp_us_per_point = 0;
  size_t multiexp_points = 0;
  bool client_decodes = true;
};

UnitCosts time_kernels(const e2e::PriceInputs& in) {
  using namespace tre::bls12;
  auto ctx = Bls12Ctx::get();
  UnitCosts u;
  size_t next = 0;
  u.hash_to_g1_us = time_us([&] {
    (void)ctx->hash_to_g1(tre::to_bytes(in.tags[next++ % in.tags.size()]));
  });
  auto prep = ctx->prepare_g2(in.g2);
  Fp12 f = ctx->miller_loop(in.g1, *prep);
  u.miller_loop_us = time_us([&] { f = ctx->miller_loop(in.g1, *prep); });
  u.final_exp_us = time_us([&] { (void)ctx->final_exponentiation(f); });
  u.g1_decode_us = time_us([&] { (void)ctx->g1_from_bytes(in.g1_wire); });

  // Multi-exp at the workload's size: its own tag images with 128-bit
  // scalars (the RLC batch width).
  const size_t n = std::max<size_t>(2, in.multiexp_points);
  std::vector<G1Point381> pts;
  std::vector<Scalar> scalars;
  for (size_t i = 0; i < n; ++i) {
    pts.push_back(ctx->hash_to_g1(tre::to_bytes(in.tags[i % in.tags.size()] + "#" +
                                                std::to_string(i))));
    tre::Bytes s(16);
    for (size_t j = 0; j < s.size(); ++j) s[j] = static_cast<std::uint8_t>(i * 31 + j * 7 + 1);
    scalars.push_back(Scalar::from_bytes_be(s));
  }
  u.multiexp_points = n;
  u.client_decodes = in.client_decodes;
  u.multiexp_us_per_point =
      time_us([&] { (void)ctx->g1_multiexp(pts, scalars, 0); }) / static_cast<double>(n);
  return u;
}

std::string highest_supported_percentile(const e2e::LatencyRecorder& lat) {
  // The highest of p90, p99, p99.9, ... with at least ten samples beyond it.
  const double n = static_cast<double>(lat.count());
  double q = 0;
  for (double cand = 0.9; cand < 1 && n * (1 - cand) >= 10; cand = 1 - (1 - cand) / 10) {
    q = cand;
  }
  if (q == 0) return "fewer than 100 samples: no percentile has 10 beyond it";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "p%.10g = %.4f ms (%.0f samples, %.0f beyond it)",
                q * 100, lat.percentile(q) / 1e6, n, std::floor(n * (1 - q)));
  return buf;
}

/// One complete set-up, as a fresh process does it: the validated curve
/// context and the power-on known-answer tests (both run once per
/// process), then the workload's own set-up. `seconds` gets its wall time.
std::unique_ptr<e2e::Workload> set_up(const Args& args, unsigned rep, double& seconds) {
  const std::uint64_t t0 = mono_ns();
  tre::selftest::ensure_registered();
  (void)tre::bls12::Bls12Ctx::get();
  tre::health::ensure_operational();
  std::unique_ptr<e2e::Workload> w = e2e::make_workload(args.workload);
  w->setup(args.seed, rep);
  seconds = static_cast<double>(mono_ns() - t0) / 1e9;
  return w;
}

/// Wall time of one set-up made in a forked child, which has not built the
/// curve context or run the known-answer tests either, so the repeat
/// covers the process-wide part too. Call only while this process has no
/// other thread. Negative when the child's set-up failed.
double set_up_in_child(const Args& args, unsigned rep) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    close(fds[0]);
    double s = -1;
    try {
      set_up(args, rep, s).reset();  // stops its daemons, joins its threads
    } catch (const std::exception& e) {
      std::fprintf(stderr, "e2e: set-up %u failed: %s\n", rep, e.what());
      s = -1;
    }
    const bool sent = write(fds[1], &s, sizeof s) == static_cast<ssize_t>(sizeof s);
    _exit(sent && s >= 0 ? 0 : 1);
  }
  close(fds[1]);
  double s = -1;
  if (read(fds[0], &s, sizeof s) != static_cast<ssize_t>(sizeof s)) s = -1;
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) s = -1;
  return s;
}

void write_spans(const std::string& path, const e2e::Workload& w,
                 std::uint64_t origin_ns) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "e2e: cannot write spans to %s\n", path.c_str());
    return;
  }
  out << "thread\top\tspan\tparent\tname\tstart_ns\tend_ns\n";
  std::vector<const e2e::Tracer*> ts = w.tracers();
  for (size_t t = 0; t < ts.size(); ++t) {
    for (const e2e::Tracer::Record& r : ts[t]->records()) {
      out << t << '\t' << r.op << '\t' << r.id << '\t' << r.parent << '\t'
          << e2e::kSpanNames[static_cast<size_t>(r.name)] << '\t'
          << (r.start_ns - origin_ns) << '\t' << (r.end_ns - origin_ns) << '\n';
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t process_start = mono_ns();
  const Args args = parse(argc, argv);
  if (std::find(std::begin(e2e::kWorkloadNames), std::end(e2e::kWorkloadNames),
                args.workload) == std::end(e2e::kWorkloadNames)) {
    usage(("unknown workload " + args.workload).c_str());
  }

  const char* pool_env = std::getenv("TRE_POOL_THREADS");
  const double ref_before = reference_loop_ns_per_iter();

  // Every set-up is complete and serial. All but the last run in forked
  // children, before this process starts any thread; the last one runs
  // here and serves the windows. It is always rep 0, so the windows' inputs
  // depend on the seed alone, not on how many reps the host's speed allowed.
  std::vector<double> rep_s;
  double total_s = 0;
  while (rep_s.size() + 1 < kMinSetupReps ||
         (total_s < kSetupBudgetS && rep_s.size() + 1 < kMaxSetupReps)) {
    const double s = set_up_in_child(args, static_cast<unsigned>(rep_s.size() + 1));
    if (s < 0) {
      std::fprintf(stderr, "e2e: set-up failed in a child process\n");
      return 1;
    }
    rep_s.push_back(s);
    total_s += s;
  }
  std::unique_ptr<e2e::Workload> w;
  try {
    double s = 0;
    w = set_up(args, 0, s);
    rep_s.push_back(s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e: set-up failed: %s\n", e.what());
    return 1;
  }
  const double setup_s = median(rep_s);
  const double first_op_s = static_cast<double>(mono_ns() - process_start) / 1e9;

  std::printf("# provenance: workload=%s seed=%llu rev=%s build=%s TRE_METRICS=%s "
              "TRE_SELFTEST=%s nproc=%u TRE_POOL_THREADS=%s pool_threads=%u "
              "generator_threads=%u connections=%u trace=%d seconds=%g\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.rev.c_str(), E2E_BUILD_TYPE, tre::obs::kEnabled ? "ON" : "OFF",
              tre::health::enabled() ? "ON" : "OFF", e2e::online_cpus(),
              pool_env != nullptr ? pool_env : "(unset)", tre::pool_thread_count(),
              w->generator_threads(), w->connections(), args.trace ? 1 : 0,
              args.seconds);
  std::printf("# setup: %zu complete set-ups (curve context, power-on KATs, workload "
              "set-up; all but the last in a forked child):",
              rep_s.size());
  for (double s : rep_s) std::printf(" %.4f", s);
  std::printf(" s; setup_s = median = %.4f s; process start to first timed op %.4f s\n",
              setup_s, first_op_s);

  auto run_window = [&](e2e::Window& win, double seconds, bool trace) {
    tre::obs::Registry::global().reset();
    e2e::Limit lim;
    lim.max_ops = args.ops;
    lim.deadline_ns = mono_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    w->run(win, lim, trace);
    tre::obs::flush_this_thread();
  };
  auto window_s = [](const e2e::Window& win) {
    return static_cast<double>(win.end_ns - win.start_ns) / 1e9;
  };

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  auto account = [&](const e2e::Window& win) {
    attempted += win.attempted;
    failed += win.failed;
    if (first_failure.empty()) first_failure = win.first_failure;
  };

  std::vector<Metric> metrics;
  e2e::Window win;
  double untraced_ops_per_s = 0;
  if (args.trace) {
    e2e::Window ref;
    run_window(ref, args.seconds / 2, false);
    account(ref);
    untraced_ops_per_s = ratio(static_cast<double>(ref.ops), window_s(ref));
  }
  std::vector<double> daemon_cpu0;
  for (clockid_t c : w->daemon_clocks()) daemon_cpu0.push_back(e2e::cpu_seconds(c));
  const double cpu0 = process_cpu_s();
  const e2e::TracedSource::Counts tc0 = w->transport_counts();
  const std::uint64_t traced_origin = mono_ns();
  run_window(win, args.trace ? args.seconds / 2 : args.seconds, args.trace);
  account(win);
  const double wall = window_s(win);
  const double cpu_window = process_cpu_s() - cpu0;
  std::vector<double> daemon_busy;
  {
    std::vector<clockid_t> dc = w->daemon_clocks();
    for (size_t i = 0; i < dc.size(); ++i) {
      daemon_busy.push_back(ratio(e2e::cpu_seconds(dc[i]) - daemon_cpu0[i], wall));
    }
  }

  const e2e::LatencyRecorder& lat = win.latency;
  const double n_ops = static_cast<double>(lat.count());
  const double ops_per_s = ratio(static_cast<double>(win.ops), wall);
  const double min_ms = lat.percentile(0) / 1e6;
  const double p1_ms = lat.percentile(0.01) / 1e6;
  const double p50_ms = lat.percentile(0.5) / 1e6;
  const double p90_ms = lat.percentile(0.9) / 1e6;

  std::printf("# window: %.3f s, %llu %s(s) checked of %llu attempted, %.4f per s; "
              "%llu latency samples (one per %s)\n",
              wall, static_cast<unsigned long long>(win.ops), w->op_unit(),
              static_cast<unsigned long long>(win.attempted), ops_per_s,
              static_cast<unsigned long long>(lat.count()), w->latency_unit());
  std::printf("# latency: min %.4f ms, p1 %.4f ms, p50 %.4f ms, p90 %.4f ms; highest "
              "supported: %s\n",
              min_ms, p1_ms, p50_ms, p90_ms, highest_supported_percentile(lat).c_str());

  // Health of honest traffic: no rejects, no bisections, no daemon failure.
  const std::uint64_t rejected = counter("client.rejected.parse") +
                                 counter("client.rejected.tag") +
                                 counter("client.rejected.sig");
  const std::uint64_t bisections = counter(std::string(P) + "batch_verify.bisections") +
                                   counter(std::string(P) + "threshold.batch.bisections");
  bool correct = failed == 0 && attempted > 0;
  if (rejected != 0) {
    correct = false;
    if (first_failure.empty()) first_failure = "client.rejected.* counted honest replies";
  }
  if (bisections != 0) {
    correct = false;
    if (first_failure.empty()) first_failure = "batch verification bisected honest input";
  }
  if (w->daemon_crashed()) {
    correct = false;
    if (first_failure.empty()) first_failure = "a daemon loop failed";
  }

  if (args.trace) {
    // Span totals over every thread's tracer.
    std::array<e2e::Tracer::Totals, static_cast<size_t>(e2e::SpanName::kCount)> spans{};
    std::uint64_t dropped = 0;
    for (const e2e::Tracer* t : w->tracers()) {
      for (size_t i = 0; i < spans.size(); ++i) {
        spans[i].count += t->totals()[i].count;
        spans[i].total_ns += t->totals()[i].total_ns;
        spans[i].self_ns += t->totals()[i].self_ns;
      }
      dropped += t->dropped();
    }
    auto span = [&](e2e::SpanName n) { return spans[static_cast<size_t>(n)]; };
    auto per_call_ms = [&](e2e::SpanName n) {
      return ratio(static_cast<double>(span(n).total_ns), static_cast<double>(span(n).count)) / 1e6;
    };
    auto per_op = [&](double v) { return ratio(v, n_ops); };
    auto c = [](const std::string& suffix) {
      return static_cast<double>(counter(std::string(P) + suffix));
    };
    auto hit_ratio = [&](const std::string& cache) {
      return ratio(c("cache." + cache + ".hit"),
                   c("cache." + cache + ".hit") + c("cache." + cache + ".miss"));
    };

    const e2e::TracedSource::Counts tc = w->transport_counts() - tc0;

    const HistSum verify = hist(std::string(P) + "verify_update_ns");
    const HistSum batch = hist(std::string(P) + "batch_verify_ns");
    const HistSum tbatch = hist(std::string(P) + "threshold.batch_verify_ns");
    const HistSum tcombine = hist(std::string(P) + "threshold.combine_ns");
    const HistSum handle = hist("daemon.request_ns");
    const double pairings = c("pairings");
    const double finalexp = c("finalexp");
    const double lines_hit = c("pair.lines.hit");
    const double lines_miss = c("pair.lines.miss");
    const double tag_misses = c("cache.tags.miss");
    const double me_points = c("multiexp.points") + c("threshold.multiexp.points");
    const double pool_tasks = static_cast<double>(counter("pool.tasks"));
    const double fetch_ns = static_cast<double>(span(e2e::SpanName::kFetch).total_ns);
    const double inner_ns = verify.sum_ns + batch.sum_ns + tbatch.sum_ns + tcombine.sum_ns;
    double gen_busy = 0;
    for (double s : win.gen_cpu_s) gen_busy = std::max(gen_busy, ratio(s, wall));
    double daemon_max = 0;
    for (double b : daemon_busy) daemon_max = std::max(daemon_max, b);
    // serve measures the daemon, so its thread must stay the busiest one;
    // otherwise the generators, not tred, set the reply rate.
    if (args.workload == "serve" && daemon_max <= gen_busy) {
      correct = false;
      if (first_failure.empty()) {
        first_failure = "serve is not daemon-bound: daemon.busy_frac " + num(daemon_max) +
                        " <= gen.busy_frac " + num(gen_busy);
      }
    }

    // Price list: unit cost x exact per-op count, per kernel layer.
    const UnitCosts u = time_kernels(w->price_inputs());
    const double op_ms = per_op(lat.sum_ns()) / 1e6;
    const double price_hash = per_op(tag_misses) * u.hash_to_g1_us / 1e3;
    const double price_miller = per_op(pairings) * u.miller_loop_us / 1e3;
    const double price_fe = per_op(finalexp) * u.final_exp_us / 1e3;
    const double price_me = per_op(me_points) * u.multiexp_us_per_point / 1e3;
    const double decoded = u.client_decodes ? static_cast<double>(tc.items) : 0;
    const double price_codec = per_op(decoded) * u.g1_decode_us / 1e3;
    const double unattributed =
        op_ms - price_hash - price_miller - price_fe - price_me - price_codec;

    metrics = {
        {"bls12.miller_loop_us", u.miller_loop_us, "us"},
        {"bls12.final_exp_us", u.final_exp_us, "us"},
        {"bls12.pairings_per_op", per_op(pairings), "count"},
        {"bls12.finalexp_per_op", per_op(finalexp), "count"},
        {"bls12.lines_hit_ratio", ratio(lines_hit, lines_hit + lines_miss), "ratio"},
        {"bls12.hash_to_g1_us", u.hash_to_g1_us, "us"},
        {"core.tags_hit_ratio", hit_ratio("tags"), "ratio"},
        {"bls12.g1_decode_us", u.g1_decode_us, "us"},
        {"ec.multiexp_points_per_op", per_op(me_points), "count"},
        {"ec.g1_multiexp_us_per_point", u.multiexp_us_per_point, "us"},
        {"core.seal_ms", per_call_ms(e2e::SpanName::kSeal), "ms"},
        {"core.open_ms", per_call_ms(e2e::SpanName::kOpen), "ms"},
        {"core.verify_ms", verify.mean_ns() / 1e6, "ms"},
        {"core.batch_verify_ms", batch.mean_ns() / 1e6, "ms"},
        {"core.issue_ms", per_call_ms(e2e::SpanName::kIssue), "ms"},
        {"core.key_checks_hit_ratio", hit_ratio("key_checks"), "ratio"},
        {"core.pair_bases_hit_ratio", hit_ratio("pair_bases"), "ratio"},
        {"core.combs_hit_ratio", hit_ratio("combs"), "ratio"},
        {"core.batch_bisections_per_op", per_op(static_cast<double>(bisections)), "count"},
        {"threshold.issue_partial_ms", per_call_ms(e2e::SpanName::kIssuePartial), "ms"},
        {"threshold.batch_verify_ms", tbatch.mean_ns() / 1e6, "ms"},
        {"threshold.combine_ms", tcombine.mean_ns() / 1e6, "ms"},
        {"client.fetch_ms", per_op(fetch_ns) / 1e6, "ms"},
        {"client.transport_ms", per_op(static_cast<double>(tc.ns)) / 1e6, "ms"},
        {"client.self_ms",
         fetch_ns > 0 ? per_op(fetch_ns - static_cast<double>(tc.ns) - inner_ns) / 1e6 : 0,
         "ms"},
        {"client.wire_bytes_per_op", per_op(static_cast<double>(tc.bytes)), "bytes"},
        {"client.attempts_per_op", per_op(static_cast<double>(tc.requests)), "count"},
        {"daemon.handle_us", handle.mean_ns() / 1e3, "us"},
        {"daemon.io_us",
         ratio(static_cast<double>(tc.ns) - handle.sum_ns, static_cast<double>(tc.requests)) / 1e3,
         "us"},
        {"daemon.busy_frac", daemon_max, "ratio"},
        {"daemon.store_put_us", per_call_ms(e2e::SpanName::kStorePut) * 1e3, "us"},
        {"gen.busy_frac", gen_busy, "ratio"},
        {"process.cpu_ms_per_op", per_op(cpu_window) * 1e3, "ms"},
        {"process.peak_rss_mb", peak_rss_mb(), "MB"},
        {"common.pool_tasks_per_op", per_op(pool_tasks), "count"},
        {"trace.overhead_frac", untraced_ops_per_s > 0 ? 1 - ops_per_s / untraced_ops_per_s : 0,
         "ratio"},
        {"price.hash_to_g1_ms", price_hash, "ms"},
        {"price.miller_ms", price_miller, "ms"},
        {"price.final_exp_ms", price_fe, "ms"},
        {"price.multiexp_ms", price_me, "ms"},
        {"price.codec_ms", price_codec, "ms"},
        {"price.unattributed_ms", unattributed, "ms"},
        {"op.mean_ms", op_ms, "ms"},
        {"op.self_ms", per_op(static_cast<double>(span(e2e::SpanName::kOp).self_ns)) / 1e6, "ms"},
    };

    std::printf("# traced window: untraced ops/s %.4f, traced ops/s %.4f; spans kept "
                "in memory, %llu dropped past capacity\n",
                untraced_ops_per_s, ops_per_s, static_cast<unsigned long long>(dropped));
    std::printf("# %-24s %10s %12s %12s %12s\n", "span", "calls/op", "ms/call",
                "ms/op", "self ms/op");
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].count == 0) continue;
      std::printf("# %-24s %10.4f %12.5f %12.5f %12.5f\n", e2e::kSpanNames[i],
                  per_op(static_cast<double>(spans[i].count)),
                  ratio(static_cast<double>(spans[i].total_ns),
                        static_cast<double>(spans[i].count)) / 1e6,
                  per_op(static_cast<double>(spans[i].total_ns)) / 1e6,
                  per_op(static_cast<double>(spans[i].self_ns)) / 1e6);
    }
    std::printf("# price list per op (unit cost x count per op):\n");
    std::printf("#   hash_to_g1   %9.4f us x %9.4f = %9.5f ms\n", u.hash_to_g1_us,
                per_op(tag_misses), price_hash);
    std::printf("#   miller_loop  %9.4f us x %9.4f = %9.5f ms\n", u.miller_loop_us,
                per_op(pairings), price_miller);
    std::printf("#   final_exp    %9.4f us x %9.4f = %9.5f ms\n", u.final_exp_us,
                per_op(finalexp), price_fe);
    std::printf("#   multiexp     %9.4f us x %9.4f = %9.5f ms (per point at N=%zu)\n",
                u.multiexp_us_per_point, per_op(me_points), price_me, u.multiexp_points);
    std::printf("#   g1_decode    %9.4f us x %9.4f = %9.5f ms\n", u.g1_decode_us,
                per_op(decoded), price_codec);
    std::printf("#   op mean %.5f ms, unattributed %.5f ms\n", op_ms, unattributed);
    std::printf("# ratio bases: lines %.0f/%.0f, tags %.0f/%.0f, daemon busy per thread",
                lines_hit, lines_hit + lines_miss, c("cache.tags.hit"),
                c("cache.tags.hit") + tag_misses);
    for (double b : daemon_busy) std::printf(" %.4f", b);
    std::printf(", generator busy per thread");
    for (double s : win.gen_cpu_s) std::printf(" %.4f", ratio(s, wall));
    std::printf("\n");
    if (!args.spans_path.empty()) write_spans(args.spans_path, *w, traced_origin);
  }

  w.reset();  // stop daemons and join every thread before reporting
  const double ref_after = reference_loop_ns_per_iter();
  std::printf("# host speed note: reference loop %.4f ns/iter before, %.4f after\n",
              ref_before, ref_after);
  std::printf("# memory: peak RSS %.4f MB\n", peak_rss_mb());
  if (!args.trace) {
    // Of the op times, only the fastest is steady enough on a shared host
    // to gate on (README.md, Which metrics are gated); ops per second, p1,
    // p50, p90 and peak RSS are the report lines above.
    metrics = {{"latency_min_ms", min_ms, "ms"}, {"setup_s", setup_s, "s"}};
  }
  if (!correct) std::printf("# FAILED: %s\n", first_failure.c_str());
  std::printf("%s\n", result_json(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
