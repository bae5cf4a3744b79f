// Recovery-curve instrumentation for mid-run faults (§4.5).
//
// The resilience question the paper's fault-tolerance story raises is not
// *whether* goodput survives a rack failure but *what the transient looks
// like*: how deep the dip is while cells blackhole into the dead rack, how
// wide it is until detection + dissemination + schedule swap complete, and
// when throughput is back at the pre-fault level. RecoveryMeter bins
// delivered bytes into fixed-width time buckets during the run and, given
// the fault time, reduces the curve to dip depth / dip width /
// time-to-recover numbers comparable across scenarios.
#pragma once

#include <cstdint>
#include <vector>

#include "ckpt/io.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "telemetry/series.hpp"

namespace sirius::stats {

/// One bucket of the goodput-vs-time curve.
struct RecoveryBin {
  Time start;
  double goodput_normalized = 0.0;
};

/// The reduced transient, all relative to the fault instant.
struct RecoverySummary {
  /// Deepest post-fault bin, as a fraction of the pre-fault baseline
  /// (1.0 = no visible dip; 0.0 = delivery fully stalled).
  double dip_floor_frac = 1.0;
  /// Total time post-fault bins spent below the recovery fraction.
  Time dip_width;
  /// First time after the fault at which goodput is back at or above
  /// `recover_frac` of the pre-fault baseline and stays there for the
  /// rest of the measured window. Infinite if it never recovers.
  Time time_to_recover = Time::infinity();
  /// Mean normalised goodput over the pre-fault bins (the baseline).
  double baseline = 0.0;
  bool recovered = false;
};

class RecoveryMeter {
 public:
  /// `servers` and `server_rate` normalise bytes to fabric capacity, as in
  /// GoodputMeter; `bin` is the curve resolution.
  RecoveryMeter(std::int32_t servers, DataRate server_rate, Time bin);

  /// Accounts `bytes` delivered at time `now` to the covering bin.
  void deliver(Time now, DataSize bytes);

  /// The binned goodput curve from t = 0 to the last delivery, each bin
  /// normalised like GoodputMeter::normalized (1.0 = all servers at line
  /// rate for the whole bin).
  [[nodiscard]] std::vector<RecoveryBin> curve() const;

  /// Reduces the curve around a fault at `fault_at`: baseline = mean of
  /// complete pre-fault bins, dip/recovery measured against
  /// `recover_frac` x baseline. Bins at or after `until` are ignored
  /// (pass the end of the arrival window so the drain tail does not
  /// read as a dip). An infinite `until` keeps every bin.
  [[nodiscard]] RecoverySummary analyze(Time fault_at, double recover_frac,
                                        Time until = Time::infinity()) const;

  [[nodiscard]] Time bin() const { return bin_; }

  /// The underlying delivered-bytes series (telemetry spine); curve() is a
  /// normalised view of exactly these bins.
  [[nodiscard]] const telemetry::BinnedSeries& series() const {
    return series_;
  }

  /// Checkpoint: geometry is validated, the accumulated bins travel.
  void serialize(ckpt::Writer& w) const;
  bool restore(ckpt::Reader& r);

 private:
  std::int32_t servers_;
  DataRate server_rate_;
  Time bin_;
  telemetry::BinnedSeries series_;  // delivered bytes per bin
};

}  // namespace sirius::stats
