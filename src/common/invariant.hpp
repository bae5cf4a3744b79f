// Runtime-checked domain invariants (docs/ARCHITECTURE.md, "Invariants &
// analysis builds").
//
// The Sirius design is only correct while a handful of properties hold
// exactly: the cyclic schedule stays a permutation, relay queues respect the
// congestion-control bound Q, cells are conserved end to end, reorder
// buffers release in order, event time never runs backwards, and clocks stay
// mutually synchronised after convergence. SIRIUS_INVARIANT(cond, fmt, ...)
// is how modules state those properties in code.
//
// A failed condition is routed to the global InvariantContext, in every
// build. In InvariantMode::kAbort (default) it prints a formatted report
// and aborts, like an assert with context. In InvariantMode::kCollect it
// records the violation and returns, letting the caller continue on a
// defensive path — used by tests that deliberately violate invariants and
// by long sweeps that want a tally instead of a crash.
//
// The macro is safe to use inside constexpr functions: the failure branch
// calls a non-constexpr function, so a violation during constant evaluation
// is a compile error (which is exactly what we want).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace sirius::check {

/// What a failed SIRIUS_INVARIANT does.
enum class InvariantMode {
  kAbort,    ///< print a report and abort (default)
  kCollect,  ///< record the violation and continue
};

/// One recorded violation (kCollect mode keeps the first few verbatim).
struct Violation {
  const char* file = nullptr;
  int line = 0;
  std::string message;
};

/// Process-wide invariant state: mode switch, violation counter and the
/// retained reports. Thread-safe; the simulator itself is single-threaded
/// but the tsan preset builds everything with -fsanitize=thread.
class InvariantContext {
 public:
  static InvariantContext& instance();

  InvariantMode mode() const;
  void set_mode(InvariantMode m);

  /// Total violations observed since the last reset().
  std::int64_t violations() const;
  /// The first kMaxRetained violations, verbatim.
  std::vector<Violation> reports() const;
  /// Clears the counter and the retained reports (not the mode).
  void reset();
  /// Human-readable summary of the retained reports.
  std::string report() const;

  /// Called by SIRIUS_INVARIANT on failure. Aborts in kAbort mode.
  [[gnu::format(printf, 5, 6)]] void fail(const char* file, int line,
                                          const char* expr, const char* fmt,
                                          ...);

  /// Installs a callback invoked on *every* failed invariant, in both
  /// modes, after the violation is recorded and before the abort/return.
  /// Process-global, last writer wins; pass nullptr to uninstall. Used by
  /// the telemetry flight recorder to dump recent events next to the
  /// report — the hook must not itself rely on invariants holding.
  void set_failure_hook(std::function<void()> hook);

  static constexpr std::size_t kMaxRetained = 64;

 private:
  InvariantContext() = default;
};

/// RAII mode switch for tests: enters kCollect, and on destruction restores
/// the previous mode and clears everything recorded while active.
class ScopedCollect {
 public:
  ScopedCollect();
  ~ScopedCollect();
  ScopedCollect(const ScopedCollect&) = delete;
  ScopedCollect& operator=(const ScopedCollect&) = delete;

  /// Violations recorded since this scope was entered.
  std::int64_t violations() const;

 private:
  InvariantMode saved_;
  std::int64_t baseline_;
};

}  // namespace sirius::check

#define SIRIUS_INVARIANT(cond, ...)                                       \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::sirius::check::InvariantContext::instance().fail(                 \
          __FILE__, __LINE__, #cond, __VA_ARGS__);                        \
    }                                                                     \
  } while (false)
