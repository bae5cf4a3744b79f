// Shared plumbing for perf_bench, the machine-readable bench writer: the
// `sirius.bench.v1` provenance block, RSS accounting with baseline
// subtraction, a machine-speed calibration probe, checkpoint timing and
// monotonic timing helpers.
//
// bench/ sits outside the sirius-lint `no-wallclock` scope (the rule
// guards src/ library code): benchmarks are the one place whose entire
// point is reading the host clock.
#pragma once

#include <cstdint>
#include <string>

#include "sim/sirius_sim.hpp"
#include "telemetry/json.hpp"

namespace sirius::bench {

/// Schema tag shared by every bench JSON artifact (BENCH_<n>.json at the
/// repo root, CI uploads). Bump only with a migration note in
/// docs/OBSERVABILITY.md.
inline constexpr const char* kBenchSchema = "sirius.bench.v1";

/// Provenance block: everything needed to interpret a BENCH_<n>.json diff
/// across the trajectory — git sha (captured at configure time),
/// compiler id/version, build type, and the build-flag fingerprint
/// (SIRIUS_TELEMETRY / SIRIUS_AUDIT / NDEBUG).
[[nodiscard]] telemetry::JsonObject provenance_json();

/// Process peak-RSS high-water mark (ru_maxrss), in KiB. Monotone: to
/// attribute RSS to a scenario, record it before (baseline) and after
/// (peak) and report the delta — the baseline carries static-init and
/// harness footprint that would otherwise inflate small-config numbers.
[[nodiscard]] std::int64_t peak_rss_kb();

/// Monotonic host clock, nanoseconds.
[[nodiscard]] std::uint64_t now_ns();

/// Wall-ns for a fixed deterministic CPU workload (CRC-32 sweeps + RNG
/// draws). Scales with single-core speed, so the regression gate can
/// normalise a committed baseline to the machine running the comparison
/// (docs/OBSERVABILITY.md, "Performance observability").
[[nodiscard]] std::uint64_t calibration_ns();

/// Mean host cost of one checkpoint write and one restore: `iters` saves
/// of `probe`'s state through ckpt::save (serialize + frame + fsync +
/// atomic rename) to a file private to this process, then `iters`
/// restores of `snap` into `probe`. The file name carries the process id,
/// so perf_bench runs side by side (ctest -j) never share it; it is
/// removed afterwards. Returns false with the failure in `*error` if any
/// save or restore fails — the caller must not report the timings then.
bool time_checkpoint(sim::SiriusSim& probe, const std::string& snap,
                     int iters, double* write_ns, double* restore_ns,
                     std::string* error);

/// Busy-spins for at least `ns` nanoseconds. Used by perf_bench
/// --inject-spin-ns to demonstrate that the regression gate fails on a
/// real slowdown; never on by default.
void spin_ns(std::uint64_t ns);

}  // namespace sirius::bench
