// Flow-completion-time bookkeeping for both simulators.
//
// The paper reports the 99th-percentile FCT of *short* flows
// (size < 100 KB) and the normalised average server goodput (Fig. 9).
#pragma once

#include <cstdint>
#include <vector>

#include "ckpt/io.hpp"
#include "common/histogram.hpp"
#include "common/time.hpp"
#include "common/units.hpp"

namespace sirius::stats {

/// The short-flow threshold used throughout §7.
inline constexpr std::int64_t kShortFlowBytes = 100'000;

struct FctSummary {
  std::int64_t completed_flows = 0;
  std::int64_t short_flows = 0;
  double short_fct_p99_ms = 0.0;
  double short_fct_p50_ms = 0.0;
  double short_fct_mean_ms = 0.0;
  double all_fct_p99_ms = 0.0;
  double all_fct_mean_ms = 0.0;
};

/// Collects completion records and summarises them.
class FctTracker {
 public:
  /// Records a completed flow of `size` with completion latency `fct`.
  void record(DataSize size, Time fct);

  [[nodiscard]] std::int64_t completed() const { return completed_; }

  FctSummary summarize();

  /// Checkpoint: samples travel in insertion order so the summary's
  /// float accumulation is bit-identical after a restore.
  void serialize(ckpt::Writer& w) const;
  bool restore(ckpt::Reader& r);

 private:
  PercentileTracker all_ms_;
  PercentileTracker short_ms_;
  std::int64_t completed_ = 0;
};

}  // namespace sirius::stats
