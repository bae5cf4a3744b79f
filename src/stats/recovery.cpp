#include "stats/recovery.hpp"

#include <algorithm>

#include "common/invariant.hpp"

namespace sirius::stats {

RecoveryMeter::RecoveryMeter(std::int32_t servers, DataRate server_rate,
                             Time bin)
    : servers_(servers), server_rate_(server_rate), bin_(bin), series_(bin) {
  SIRIUS_INVARIANT(servers >= 1, "RecoveryMeter needs >= 1 server, got %d",
                   servers);
  SIRIUS_INVARIANT(bin > Time::zero(), "RecoveryMeter bin must be positive");
}

void RecoveryMeter::deliver(Time now, DataSize bytes) {
  series_.add(now, static_cast<double>(bytes.in_bytes()));
}

std::vector<RecoveryBin> RecoveryMeter::curve() const {
  const std::vector<double>& per_bin = series_.bins();
  std::vector<RecoveryBin> out;
  out.reserve(per_bin.size());
  const double capacity_bits =
      static_cast<double>(server_rate_.bits_per_sec()) * servers_ *
      bin_.to_sec();
  for (std::size_t i = 0; i < per_bin.size(); ++i) {
    RecoveryBin b;
    b.start = series_.bin_start(i);
    b.goodput_normalized =
        capacity_bits > 0.0 ? per_bin[i] * 8.0 / capacity_bits : 0.0;
    out.push_back(b);
  }
  return out;
}

RecoverySummary RecoveryMeter::analyze(Time fault_at, double recover_frac,
                                       Time until) const {
  RecoverySummary out;
  const std::vector<RecoveryBin> bins = curve();
  // Baseline: complete bins strictly before the fault.
  double pre_sum = 0.0;
  std::int64_t pre_n = 0;
  std::size_t first_post = bins.size();
  for (std::size_t i = 0; i < bins.size(); ++i) {
    if (bins[i].start + bin_ <= fault_at) {
      pre_sum += bins[i].goodput_normalized;
      ++pre_n;
    } else if (first_post == bins.size()) {
      first_post = i;
    }
  }
  if (pre_n == 0) return out;  // fault before any complete bin: undefined
  out.baseline = pre_sum / static_cast<double>(pre_n);
  if (out.baseline <= 0.0) return out;

  const double floor = recover_frac * out.baseline;
  double dip_floor = 1.0;
  Time dip_width = Time::zero();
  std::size_t last_bad = first_post;  // one past the last below-floor bin
  std::size_t end_i = first_post;     // one past the last counted bin
  for (std::size_t i = first_post; i < bins.size(); ++i) {
    if (bins[i].start + bin_ > until) break;  // drain tail: not a dip
    end_i = i + 1;
    const double frac = bins[i].goodput_normalized / out.baseline;
    dip_floor = std::min(dip_floor, frac);
    if (bins[i].goodput_normalized < floor) {
      dip_width = dip_width + bin_;
      last_bad = i + 1;
    }
  }
  out.dip_floor_frac = dip_floor;
  out.dip_width = dip_width;
  // Recovered = the window has post-fault bins and the final one is back
  // at or above the floor (the dip ended inside the window).
  if (end_i > first_post && last_bad < end_i) {
    out.recovered = true;
    const Time back_at = last_bad == first_post
                             ? fault_at
                             : bins[last_bad - 1].start + bin_;
    out.time_to_recover =
        back_at > fault_at ? back_at - fault_at : Time::zero();
  }
  return out;
}


void RecoveryMeter::serialize(ckpt::Writer& w) const {
  w.i32(servers_);
  w.i64(server_rate_.bits_per_sec());
  w.i64(bin_.picoseconds());
  w.vec_f64(series_.bins());
}

bool RecoveryMeter::restore(ckpt::Reader& r) {
  const std::int32_t servers = r.i32();
  const std::int64_t rate_bps = r.i64();
  const std::int64_t bin_ps = r.i64();
  auto bins = r.vec_f64("recovery curve bins");
  if (!r.ok()) return false;
  if (servers != servers_ || rate_bps != server_rate_.bits_per_sec() ||
      bin_ps != bin_.picoseconds()) {
    r.fail("recovery meter geometry does not match this run's config");
    return false;
  }
  series_.set_bins(std::move(bins));
  return true;
}

}  // namespace sirius::stats
