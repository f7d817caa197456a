// Library health latch for the FIPS-style power-on self-test gate.
//
// Key-producing entry points (keygen and key rebinding, issue_update,
// seal, encrypt_batch, open, open_with_epoch_key, open_batch, epoch-key
// derivation, the §5 extensions' keygen/seal/open, threshold setup /
// partial issuance / DKG keygen, keystore seal/open, the time-lock
// solver) call
// `health::ensure_operational()` before touching secret material. The
// first such call triggers the registered self-test runner once; if any
// known-answer test fails — a miscompiled kernel, a corrupted constant, a
// bit-flipped table — the poisoned state latches and every later gated
// call throws `tre::SelftestError` (Errc::kSelftestFailed) instead of
// producing secrets. See src/selftest/ for the runner and
// docs/ROBUSTNESS.md for the gate semantics.
//
// Layering: this header is the entire coupling between the core scheme
// and the self-test module. The runner (which exercises the full stack,
// both pairing backends included) registers itself from src/selftest/ via
// a static initializer; a binary that never links the self-test module
// simply runs ungated (state kOk on first use, nothing to run).
#pragma once

#include <atomic>
#include <mutex>

#include "common/error.h"

namespace tre::health {

/// Always true: the gate is compiled into every build. Kept only because
/// the end-to-end benchmark's provenance line prints it; nothing else may
/// branch on it.
inline constexpr bool enabled() { return true; }

namespace detail {

enum State : int { kUnchecked = 0, kRunning = 1, kOk = 2, kPoisoned = 3 };

inline std::atomic<int> g_state{kUnchecked};
/// The power-on runner, installed by src/selftest/ at static-init time.
/// Returns true when every known-answer test passed.
inline std::atomic<bool (*)()> g_runner{nullptr};
inline std::mutex g_mutex;

/// Slow path of ensure_operational(): runs the registered runner exactly
/// once (under the mutex; kRunning lets the runner's own gated calls —
/// the KATs exercise seal/open/keygen — pass through without recursing).
inline void run_power_on_locked() {
  std::lock_guard<std::mutex> lock(g_mutex);
  if (g_state.load(std::memory_order_acquire) != kUnchecked) return;
  bool (*runner)() = g_runner.load(std::memory_order_acquire);
  if (runner == nullptr) {
    // No self-test module linked into this binary: run ungated.
    g_state.store(kOk, std::memory_order_release);
    return;
  }
  g_state.store(kRunning, std::memory_order_release);
  bool ok = false;
  try {
    ok = runner();
  } catch (...) {
    ok = false;  // a throwing KAT is a failing KAT
  }
  g_state.store(ok ? kOk : kPoisoned, std::memory_order_release);
}

}  // namespace detail

/// True once a self-test failure has latched.
inline bool poisoned() {
  return detail::g_state.load(std::memory_order_acquire) == detail::kPoisoned;
}

/// The gate. Hot-path cost when healthy: one acquire load and a
/// predictable branch.
inline void ensure_operational() {
  int s = detail::g_state.load(std::memory_order_acquire);
  if (s == detail::kOk || s == detail::kRunning) return;
  if (s == detail::kPoisoned) throw SelftestError();
  detail::run_power_on_locked();
  if (poisoned()) throw SelftestError();
}

/// Latches the poisoned state unconditionally (the self-test module calls
/// this when a KAT run fails after the power-on run; tests use it too).
inline void poison() {
  detail::g_state.store(detail::kPoisoned, std::memory_order_release);
}

/// Installs the power-on runner (idempotent; the self-test module's
/// static registrar is the only production caller).
inline void register_runner(bool (*runner)()) {
  detail::g_runner.store(runner, std::memory_order_release);
}

/// Returns the latch to the unchecked state so a test can re-run the
/// power-on sequence (fault-injection cases trip the gate on purpose and
/// must be able to clear it for the next case). Not for production use:
/// a real deployment never unlatches.
inline void reset_for_testing() {
  std::lock_guard<std::mutex> lock(detail::g_mutex);
  detail::g_state.store(detail::kUnchecked, std::memory_order_release);
}

}  // namespace tre::health
