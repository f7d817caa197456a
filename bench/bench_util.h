// Shared helpers for the plain-table experiment harnesses (E2-E7, E9,
// E10). Each harness prints a self-describing table; EXPERIMENTS.md
// records the paper claim the table checks.
#pragma once

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>

#include "obs/metrics.h"

namespace tre::bench {

/// Milliseconds consumed by `fn()` run `reps` times, averaged.
inline double time_ms(int reps, const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) fn();
  auto elapsed =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start);
  return elapsed.count() / reps;
}

inline void header(const char* experiment, const char* claim) {
  std::printf("\n=== %s ===\n", experiment);
  std::printf("paper claim: %s\n\n", claim);
}

/// `"metrics": {...}` — the global obs registry snapshot as a field for
/// a hand-rolled BENCH_*.json object, `indent` spaces deep. The caller
/// manages surrounding commas.
inline std::string metrics_json_field(int indent = 2) {
  std::string margin(static_cast<size_t>(indent), ' ');
  return margin + "\"metrics\":\n" + obs::Registry::global().to_json(indent);
}

}  // namespace tre::bench
