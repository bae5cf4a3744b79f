// Telemetry hub: one object owning the run's metrics registry, cell
// tracer, flight recorder, time-series sampler and profiler.
//
// Producers take a Hub* (SiriusSimConfig::telemetry, EsnConfig::telemetry)
// and emit through it; a null pointer means "own disabled hub" — counters
// still count (they replace what used to be ad-hoc int64 members) but no
// sink records, no file is written and no wall clock is read. The
// SIRIUS_CELL_EVENT macro compiles to a tracing()-guarded record, so the
// disabled cost on the hot path is one pointer test and one branch.
//
// Determinism: the hub is write-only from the simulator's point of view —
// nothing the simulator reads ever depends on hub state, so results are
// bit-identical with telemetry on or off. One Hub serves
// one run; attach a fresh hub per simulation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "telemetry/events.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profile.hpp"
#include "telemetry/trace.hpp"

namespace sirius::telemetry {

struct TelemetryConfig {
  /// Metrics time-series path; extension selects the format (.csv writes
  /// CSV, anything else JSONL). Empty = sampling off.
  std::string metrics_out;
  /// Simulated-time sampling cadence.
  Time metrics_every = Time::us(10);
  /// Chrome trace-event JSON path. Empty = tracing off.
  std::string trace_out;
  /// Keep flows with id % sample == 0 in the trace (1 = every flow).
  std::int64_t trace_flow_sample = 1;
  /// Hard cap on buffered trace events (overflow is counted, not stored).
  std::int64_t trace_max_events = 1'000'000;
  /// Flight-recorder ring depth per node; 0 = off.
  std::int32_t flight_recorder_depth = 0;
  /// Enable wall-clock profiling scopes.
  bool profile = false;
  /// Hierarchical profile (flame-style JSON) output path; non-empty
  /// implies `profile`.
  std::string flame_out;

  [[nodiscard]] bool any_enabled() const {
    return !metrics_out.empty() || !trace_out.empty() ||
           flight_recorder_depth > 0 || profile || !flame_out.empty();
  }
};

class Hub {
 public:
  /// A disabled hub: the registry works (producers can bind counters
  /// unconditionally) but every sink is off.
  Hub() = default;
  explicit Hub(TelemetryConfig cfg);
  ~Hub();
  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] Profiler& profiler() { return profiler_; }
  [[nodiscard]] CellTracer& tracer() { return tracer_; }
  [[nodiscard]] FlightRecorder& recorder() { return recorder_; }
  [[nodiscard]] TimeSeriesSampler& sampler() { return sampler_; }
  [[nodiscard]] const TelemetryConfig& config() const { return cfg_; }

  /// Called once by the simulation that adopts this hub: sizes the
  /// flight-recorder rings and installs the invariant failure hook.
  void attach_nodes(std::int32_t nodes);

  /// Any event sink live? Checked before building a CellEventRecord.
  [[nodiscard]] bool tracing() const {
    return tracer_.enabled() || recorder_.enabled();
  }
  [[nodiscard]] bool metrics_enabled() const { return sampler_.enabled(); }

  void on_cell_event(const CellEventRecord& r) {
    if (recorder_.enabled()) recorder_.record(r);
    if (tracer_.wants(r.flow)) tracer_.record(r);
  }

  void maybe_sample(Time now) { sampler_.maybe_sample(now); }
  void sample(Time now) { sampler_.sample(now); }

  /// One artifact finish() wrote (or failed to write).
  struct Artifact {
    std::string kind;  ///< "metrics" | "trace" | "flame"
    std::string path;
    bool ok = false;
  };

  /// Flushes the metrics series, the trace and the flame profile to their
  /// configured paths. Idempotent per hub; returns what was written for
  /// the manifest.
  std::vector<Artifact> finish();

 private:
  TelemetryConfig cfg_;
  MetricsRegistry metrics_;
  TimeSeriesSampler sampler_;
  CellTracer tracer_;
  FlightRecorder recorder_;
  Profiler profiler_;
  std::int32_t nodes_ = 0;
  bool hook_installed_ = false;
};

}  // namespace sirius::telemetry

/// Emits one cell-lifecycle event through `hub` (a Hub*, may be null).
/// Arguments are not evaluated unless an event sink is live. Parameter
/// names carry trailing underscores so they cannot capture the record's
/// member names during expansion.
#define SIRIUS_CELL_EVENT(hub_, ev_, at_, node_, peer_, dst_, flow_, seq_) \
  do {                                                                     \
    ::sirius::telemetry::Hub* sirius_cell_event_hub = (hub_);              \
    if (sirius_cell_event_hub != nullptr &&                                \
        sirius_cell_event_hub->tracing()) {                                \
      ::sirius::telemetry::CellEventRecord sirius_cell_event_rec;          \
      sirius_cell_event_rec.at = (at_);                                    \
      sirius_cell_event_rec.event = (ev_);                                 \
      sirius_cell_event_rec.node = (node_);                                \
      sirius_cell_event_rec.peer = (peer_);                                \
      sirius_cell_event_rec.dst = (dst_);                                  \
      sirius_cell_event_rec.flow = (flow_);                                \
      sirius_cell_event_rec.seq = (seq_);                                  \
      sirius_cell_event_hub->on_cell_event(sirius_cell_event_rec);         \
    }                                                                      \
  } while (false)
