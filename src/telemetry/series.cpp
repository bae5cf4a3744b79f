#include "telemetry/series.hpp"

#include <algorithm>

#include "common/invariant.hpp"

namespace sirius::telemetry {

BinnedSeries::BinnedSeries(Time bin) : bin_(bin) {
  SIRIUS_INVARIANT(bin > Time::zero(), "BinnedSeries bin must be positive");
  if (bin_ <= Time::zero()) bin_ = Time::us(1);
}

void BinnedSeries::add(Time at, double value) {
  if (at < Time::zero()) return;
  const auto i = static_cast<std::size_t>(at / bin_);
  // Bin growth is monotone in sim time: O(log) doublings per run.
  if (bins_.size() <= i) bins_.resize(i + 1, 0.0);
  bins_[i] += value;
}

Time BinnedSeries::bin_start(std::size_t i) const {
  return bin_ * static_cast<std::int64_t>(i);
}

StripChart render_strip_chart(const std::vector<double>& per_bin,
                              double baseline, std::ptrdiff_t mark_bin,
                              std::size_t max_columns) {
  StripChart out;
  if (max_columns == 0) max_columns = 1;
  const double base = baseline > 0.0 ? baseline : 1.0;

  // Trim the drain tail: trailing bins far below baseline are the arrival
  // process winding down, not a fault dip.
  std::size_t last = per_bin.size();
  while (last > 0 && per_bin[last - 1] < 0.5 * baseline) --last;
  // Never trim away the marked bin itself.
  if (mark_bin >= 0 &&
      static_cast<std::size_t>(mark_bin) < per_bin.size() &&
      last <= static_cast<std::size_t>(mark_bin)) {
    last = static_cast<std::size_t>(mark_bin) + 1;
  }
  out.shown = last;
  out.stride = last > max_columns ? (last + max_columns - 1) / max_columns : 1;

  for (std::size_t i = 0; i < last; i += out.stride) {
    double sum = 0.0;
    bool marked = false;
    const std::size_t end = std::min(last, i + out.stride);
    for (std::size_t j = i; j < end; ++j) {
      sum += per_bin[j];
      marked = marked || (mark_bin >= 0 &&
                          j == static_cast<std::size_t>(mark_bin));
    }
    const double frac = sum / (static_cast<double>(end - i) * base);
    const char glyph = frac >= 0.95   ? '#'
                       : frac >= 0.75 ? '+'
                       : frac >= 0.50 ? '-'
                       : frac >= 0.25 ? '.'
                                      : ' ';
    out.cells.push_back(marked ? 'X' : glyph);
  }
  return out;
}

}  // namespace sirius::telemetry
