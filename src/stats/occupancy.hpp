// Queue-occupancy accounting (Fig. 10c/10d): peak aggregate queue bytes
// per node and peak per-flow reorder-buffer bytes at receivers.
#pragma once

#include <algorithm>
#include <cstdint>

#include "ckpt/io.hpp"
#include "common/histogram.hpp"
#include "common/units.hpp"

namespace sirius::stats {

/// Tracks a single byte-counted gauge with its sticky peak.
class ByteGauge {
 public:
  void add(DataSize d) {
    current_ += d;
    peak_ = std::max(peak_, current_);
  }
  void remove(DataSize d) { current_ -= d; }

  [[nodiscard]] DataSize current() const { return current_; }
  [[nodiscard]] DataSize peak() const { return peak_; }

  /// Checkpoint state: current level + sticky peak.
  void serialize(ckpt::Writer& w) const;
  bool restore(ckpt::Reader& r);

 private:
  DataSize current_;
  DataSize peak_;
};

/// Aggregates per-entity gauge peaks into a fleet-wide worst case.
class OccupancyAggregator {
 public:
  void observe_peak(DataSize peak) {
    worst_peak_ = std::max(worst_peak_, peak);
    sum_peaks_ += peak;
    ++entities_;
  }
  [[nodiscard]] DataSize worst_peak() const { return worst_peak_; }
  /// Mean of the observed per-entity peaks, in bytes.
  [[nodiscard]] double mean_peak_bytes() const;

  /// Checkpoint state: worst peak, peak sum and entity count.
  void serialize(ckpt::Writer& w) const;
  bool restore(ckpt::Reader& r);

 private:
  DataSize worst_peak_;
  DataSize sum_peaks_;
  std::int64_t entities_ = 0;
};

}  // namespace sirius::stats
