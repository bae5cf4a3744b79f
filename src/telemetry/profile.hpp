// Wall-clock profiling scopes for the simulator hot paths.
//
// This is a sanctioned wall-clock island in src/ (the sirius-lint
// `no-wallclock` rule carves out src/telemetry/profile.* and nothing
// else): the profiler measures how long the *simulator* takes on the
// host, strictly outside simulated time. Nothing here reads or feeds
// Time — a profiled and an unprofiled run produce bit-identical
// simulation results, they just burn different amounts of host CPU.
//
// Attribution is hierarchical: scopes nest (SIRIUS_PROFILE_SCOPE is RAII,
// so entry/exit are strictly LIFO) and the profiler maintains a call tree
// keyed by (parent, scope). Each tree node accounts *total* time (the
// scope's own body plus everything profiled beneath it) and *self* time
// (total minus the time attributed to profiled children), so the
// end-of-run table answers "where does slot time actually go" instead of
// double-counting nested scopes. flame_json() exports the same tree as a
// flame-graph-style JSON document (docs/OBSERVABILITY.md).
//
// Usage: bind a Profiler, then put SIRIUS_PROFILE_SCOPE(profiler, scope)
// at the top of a block. Disabled profilers cost one branch; without
// SIRIUS_TELEMETRY the macro compiles away entirely.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sirius::telemetry {

/// Fixed scope set: hot paths worth timing, stable across runs so tables
/// are comparable. Append new scopes at the end — bench trajectories
/// compare tables by name across commits.
enum class ProfScope : std::uint8_t {
  kSlotLoop = 0,   ///< the whole per-slot body (sirius sim)
  kEpochCc,        ///< request/grant epoch exchange
  kTransmit,       ///< transmit_slot: schedule walk + queue pops
  kLandInject,     ///< landing in-flight cells + flow injection
  kFailover,       ///< §4.5 round-boundary failover work
  kAudit,          ///< invariant auditor sweeps
  kEsnRates,       ///< ESN fluid max-min rate recomputation
  kDeliver,        ///< per-cell delivery: reorder insert + completion
  kStats,          ///< gauge refresh + time-series sampling
  kCheckpoint,     ///< checkpoint_state serialization at the sink cadence
  kScopeCount,
};

inline constexpr std::size_t kProfScopeCount =
    static_cast<std::size_t>(ProfScope::kScopeCount);

[[nodiscard]] const char* prof_scope_name(ProfScope s);

class Profiler {
 public:
  struct ScopeStats {
    std::uint64_t calls = 0;
    std::uint64_t total_nanos = 0;
    std::uint64_t max_nanos = 0;
  };

  /// One node of the attribution tree. `self` time is derived:
  /// total_nanos - child_nanos (never negative by construction).
  struct TreeNode {
    ProfScope scope = ProfScope::kScopeCount;  ///< sentinel at the root
    std::int32_t parent = -1;
    std::int32_t first_child = -1;
    std::int32_t next_sibling = -1;
    std::uint64_t calls = 0;
    std::uint64_t total_nanos = 0;
    std::uint64_t child_nanos = 0;
    std::uint64_t max_nanos = 0;

    [[nodiscard]] std::uint64_t self_nanos() const {
      return total_nanos >= child_nanos ? total_nanos - child_nanos : 0;
    }
  };

  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens scope `s` as a child of the innermost open scope (tree
  /// bookkeeping only — the caller reads the clock after, so bookkeeping
  /// cost is not attributed to the scope). No-op while disabled.
  void enter(ProfScope s);
  /// Closes the innermost open scope, attributing `nanos` to it (and to
  /// the parent's child-time). Exits are LIFO by RAII construction; a
  /// spurious exit with no open scope is ignored.
  void exit_scope(std::uint64_t nanos);

  /// Path-insensitive view of scope `s`: calls and total summed over every
  /// tree node of that scope, max taken over them.
  [[nodiscard]] ScopeStats stats(ProfScope s) const;

  /// The attribution tree; index 0 is the synthetic root (scope ==
  /// kScopeCount) whose children are the outermost profiled scopes.
  /// Empty until the first enter().
  [[nodiscard]] const std::vector<TreeNode>& tree() const { return tree_; }

  /// Monotonic host clock in nanoseconds. Defined in profile.cpp so the
  /// steady_clock read stays inside the lint carve-out.
  [[nodiscard]] static std::uint64_t now_nanos();

  /// Human-readable end-of-run report: the flat scope table plus, when
  /// any scopes nested, an indented self/total attribution tree. Empty
  /// string when nothing was timed.
  [[nodiscard]] std::string table() const;

  /// Flame-graph-style JSON: {"name":"root","total_ns":...,"children":
  /// [{"name":...,"calls":...,"total_ns":...,"self_ns":...,...},...]}.
  /// Children appear in first-entered order, so exports diff cleanly
  /// between runs of the same build.
  [[nodiscard]] std::string flame_json() const;

 private:
  [[nodiscard]] std::int32_t find_or_add_child(std::int32_t parent,
                                               ProfScope s);

  bool enabled_ = false;
  std::vector<TreeNode> tree_;
  std::int32_t cur_ = -1;  ///< innermost open node; -1 = tree unopened
};

/// RAII scope timer; reads the host clock only while the profiler is
/// enabled.
class ScopedTimer {
 public:
  ScopedTimer(Profiler& p, ProfScope s)
      : p_(p), armed_(p.enabled()), start_(0) {
    if (armed_) {
      p_.enter(s);
      start_ = Profiler::now_nanos();
    }
  }
  ~ScopedTimer() {
    if (armed_) p_.exit_scope(Profiler::now_nanos() - start_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Profiler& p_;
  bool armed_;
  std::uint64_t start_;
};

}  // namespace sirius::telemetry

#define SIRIUS_TELEMETRY_PP_CAT2(a, b) a##b
#define SIRIUS_TELEMETRY_PP_CAT(a, b) SIRIUS_TELEMETRY_PP_CAT2(a, b)

#if defined(SIRIUS_TELEMETRY)
#define SIRIUS_PROFILE_SCOPE(profiler, scope)                      \
  ::sirius::telemetry::ScopedTimer SIRIUS_TELEMETRY_PP_CAT(        \
      sirius_prof_scope_, __LINE__)((profiler), (scope))
#else
#define SIRIUS_PROFILE_SCOPE(profiler, scope) static_cast<void>(0)
#endif
