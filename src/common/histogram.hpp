// Percentile tracking and simple histograms for experiment metrics.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/invariant.hpp"

namespace sirius {

/// Exact percentile tracker: stores every sample, sorts on demand.
///
/// Experiments record at most a few hundred thousand samples per run, so an
/// exact tracker is affordable and avoids quantisation questions when
/// reporting tail latency.
class PercentileTracker {
 public:
  void add(double v) {
    // Flow-completion-rate, not slot-rate: one push per finished flow,
    // amortized geometric growth.
    samples_.push_back(v);
    sorted_ = false;
  }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double min() { return percentile(0.0); }
  double max() { return percentile(100.0); }
  double median() { return percentile(50.0); }

  /// Nearest-rank percentile, p in [0, 100]. Requires at least one sample.
  double percentile(double p) {
    assert(!samples_.empty());
    sort_if_needed();
    if (p <= 0.0) return samples_.front();
    if (p >= 100.0) return samples_.back();
    const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= samples_.size()) return samples_.back();
    return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
  }

  double mean() const {
    if (samples_.empty()) return 0.0;
    double sum = 0.0;
    for (double v : samples_) sum += v;
    return sum / static_cast<double>(samples_.size());
  }

  void clear() {
    samples_.clear();
    sorted_ = true;
  }

  /// Read-only access to the raw samples (unsorted order not guaranteed).
  const std::vector<double>& samples() const { return samples_; }

  /// Checkpoint restore: replaces the sample set wholesale, preserving the
  /// stored order so later mean() float accumulation is bit-identical.
  void set_samples(std::vector<double> samples) {
    samples_ = std::move(samples);
    sorted_ = false;
  }

 private:
  void sort_if_needed() {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }

  std::vector<double> samples_;
  bool sorted_ = true;
};

/// Fixed-bin histogram over [lo, hi) with out-of-range clamping, used for
/// device-model CDFs (e.g. SOA switching-time distribution of Fig. 8a).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins)
      : lo_(lo), hi_(hi), counts_(bins, 0) {
    assert(hi > lo && bins > 0);
  }

  void add(double v) {
    const auto bins = counts_.size();
    double t = (v - lo_) / (hi_ - lo_);
    t = std::clamp(t, 0.0, 1.0);
    auto idx = static_cast<std::size_t>(t * static_cast<double>(bins));
    if (idx >= bins) idx = bins - 1;
    ++counts_[idx];
    ++total_;
  }

  std::size_t total() const { return total_; }
  std::size_t bins() const { return counts_.size(); }
  std::uint64_t count_at(std::size_t bin) const { return counts_.at(bin); }
  double bin_low(std::size_t bin) const {
    return lo_ + (hi_ - lo_) * static_cast<double>(bin) /
                     static_cast<double>(counts_.size());
  }
  double bin_high(std::size_t bin) const { return bin_low(bin + 1); }

  /// Raw bin counts, for checkpoint capture.
  const std::vector<std::uint64_t>& counts() const { return counts_; }

  /// Checkpoint restore: replaces the bin counts wholesale (geometry must
  /// match the constructed histogram). Returns false on a size mismatch.
  bool set_counts(const std::vector<std::uint64_t>& counts) {
    if (counts.size() != counts_.size()) return false;
    counts_ = counts;
    total_ = 0;
    for (const auto c : counts_) total_ += static_cast<std::size_t>(c);
    return true;
  }

  /// Cumulative fraction of samples at or below the upper edge of `bin`.
  double cdf_at(std::size_t bin) const {
    if (total_ == 0) return 0.0;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i <= bin && i < counts_.size(); ++i) {
      cum += counts_[i];
    }
    return static_cast<double>(cum) / static_cast<double>(total_);
  }

  /// Binned percentile, p in [0, 100], with linear interpolation inside the
  /// covering bin (samples are assumed uniform within a bin). Edge
  /// behaviour: an empty histogram returns lo; p <= 0 returns the lower
  /// edge of the first non-empty bin; p >= 100 the upper edge of the last
  /// non-empty bin. Out-of-range samples were clamped at add() time, so
  /// the result always lies in [lo, hi].
  double percentile(double p) const {
    if (total_ == 0) return lo_;
    std::size_t first = 0;
    while (counts_[first] == 0) ++first;
    std::size_t last = counts_.size() - 1;
    while (counts_[last] == 0) --last;
    if (p <= 0.0) return bin_low(first);
    if (p >= 100.0) return bin_high(last);
    const double target = p / 100.0 * static_cast<double>(total_);
    double cum = 0.0;
    for (std::size_t i = first; i <= last; ++i) {
      const auto c = static_cast<double>(counts_[i]);
      if (cum + c >= target && c > 0.0) {
        const double frac = (target - cum) / c;
        return bin_low(i) + (bin_high(i) - bin_low(i)) * frac;
      }
      cum += c;
    }
    return bin_high(last);
  }

  /// Accumulates another histogram's counts into this one. Both must share
  /// the exact (lo, hi, bins) geometry; a mismatch is an invariant
  /// violation and the merge is skipped on the defensive path.
  void merge(const Histogram& other) {
    const bool same = lo_ == other.lo_ && hi_ == other.hi_ &&
                      counts_.size() == other.counts_.size();
    SIRIUS_INVARIANT(same,
                     "Histogram::merge geometry mismatch: [%g, %g)/%zu vs "
                     "[%g, %g)/%zu",
                     lo_, hi_, counts_.size(), other.lo_, other.hi_,
                     other.counts_.size());
    if (!same) return;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    total_ += other.total_;
  }

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::size_t total_ = 0;
};

/// Running peak/mean tracker for gauge-style metrics (queue occupancy).
class PeakTracker {
 public:
  void observe(double v) {
    peak_ = std::max(peak_, v);
    sum_ += v;
    ++n_;
  }
  double peak() const { return peak_; }
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  std::uint64_t observations() const { return n_; }

 private:
  double peak_ = 0.0;
  double sum_ = 0.0;
  std::uint64_t n_ = 0;
};

}  // namespace sirius
