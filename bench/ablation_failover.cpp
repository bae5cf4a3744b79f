// Ablation — §4.5 fault tolerance, two experiments:
//
//   1. Static sweep: with k failed racks out of N, the adjusted schedule
//      (rotation over the alive set, failed relays excluded by congestion
//      control) keeps the network functional with a proportional ~k/N
//      bandwidth loss, instead of blackholing 1/N of every node's traffic
//      through the dead relay.
//
//   2. Recovery curves: a rack hard-fails (or one link goes grey) in the
//      middle of the run, and the fabric must detect it in-band, swap the
//      schedule, and retransmit what was lost. The goodput-vs-time curve
//      shows the transient: dip depth while cells blackhole, dip width
//      until detection + dissemination + swap complete, and the time until
//      goodput is back at the pre-fault level.
#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <vector>

#include "core/experiment.hpp"
#include "sim/sirius_sim.hpp"
#include "telemetry/series.hpp"

using namespace sirius;
using namespace sirius::core;

namespace {

void print_recovery(const char* label, const sim::SiriusSimResult& r,
                    Time fault_at) {
  const auto& fo = r.failover;
  std::printf("\n%s\n", label);
  std::printf("  detection %lld rounds (%s), dissemination %lld rounds "
              "(%s), %lld swap(s)\n",
              static_cast<long long>(fo.detection_rounds),
              fo.detection_latency.to_string().c_str(),
              static_cast<long long>(fo.dissemination_rounds),
              fo.dissemination_latency.to_string().c_str(),
              static_cast<long long>(fo.schedule_swaps));
  std::printf("  dropped %lld, retransmitted %lld (%lld abandoned, %lld "
              "duplicates), aborted %lld flows, %lld incomplete\n",
              static_cast<long long>(fo.cells_dropped),
              static_cast<long long>(fo.cells_retransmitted),
              static_cast<long long>(fo.retx_abandoned),
              static_cast<long long>(fo.duplicates_discarded),
              static_cast<long long>(fo.flows_aborted),
              static_cast<long long>(r.incomplete_flows));
  std::printf("  dip floor %.2f of baseline %.3f, width %s, recover in "
              "%s%s\n",
              fo.recovery.dip_floor_frac, fo.recovery.baseline,
              fo.recovery.dip_width.to_string().c_str(),
              fo.recovery.time_to_recover.to_string().c_str(),
              fo.recovery.recovered ? "" : " (never)");
  // The curve itself, rendered by the shared telemetry strip-chart: one
  // glyph per column scaled to the pre-fault baseline, 'X' marking the
  // fault bin, drain tail trimmed (it would read as a dip).
  std::vector<double> per_bin;
  per_bin.reserve(r.recovery_curve.size());
  std::ptrdiff_t mark = -1;
  for (std::size_t i = 0; i < r.recovery_curve.size(); ++i) {
    per_bin.push_back(r.recovery_curve[i].goodput_normalized);
    if (r.recovery_curve[i].start <= fault_at &&
        fault_at < r.recovery_curve[i].start + Time::us(2)) {
      mark = static_cast<std::ptrdiff_t>(i);
    }
  }
  const telemetry::StripChart chart =
      telemetry::render_strip_chart(per_bin, fo.recovery.baseline, mark);
  std::printf("  goodput/baseline, %zu x 2 us per column:\n  [%s]\n",
              chart.stride, chart.cells.c_str());
}

}  // namespace

int main() {
  const ExperimentConfig cfg = ExperimentConfig::from_env();
  std::printf("Fault tolerance: failed racks vs goodput/FCT (%d racks, "
              "%lld flows, L=75%%)\n",
              cfg.racks, static_cast<long long>(cfg.flows));
  std::printf("%-8s %-14s %-10s %-10s %-10s\n", "failed", "fct99_short_ms",
              "goodput", "rejected", "incomplete");

  const auto w = make_workload(cfg, 0.75);
  for (const std::int32_t k : {0, 1, 2, 4, 8}) {
    sim::SiriusSimConfig s = make_sirius_config(cfg, SiriusVariant{});
    for (std::int32_t f = 0; f < k; ++f) {
      // Spread failures across the id space.
      s.faults.fail_rack(f * (cfg.racks / std::max(1, k)), Time::zero());
    }
    sim::SiriusSim sim(s, w);
    const auto r = sim.run();
    std::printf("%-8d %-14.4f %-10.3f %-10lld %-10lld\n", k,
                r.fct.short_fct_p99_ms, r.goodput_normalized,
                static_cast<long long>(r.rejected_flows),
                static_cast<long long>(r.incomplete_flows));
  }
  std::printf("\n(§4.5: a node failure costs every other node ~1/N of its "
              "bandwidth; the alive-set schedule regains the rest — goodput "
              "degrades gracefully and nothing blackholes)\n");

  // ---- recovery curves: mid-run faults, detected in-band ----------------
  const auto w50 = make_workload(cfg, 0.50);
  const Time fault_at = Time::us(60);
  {
    sim::SiriusSimConfig s = make_sirius_config(cfg, SiriusVariant{});
    s.faults.fail_rack(1, fault_at);
    s.record_recovery_curve = true;
    sim::SiriusSim sim(s, w50);
    print_recovery("Mid-run hard failure: rack 1 dies at 60 us (L=50%)",
                   sim.run(), fault_at);
  }
  {
    sim::SiriusSimConfig s = make_sirius_config(cfg, SiriusVariant{});
    // Transient total outage of one directed link: grey with loss 1.0 for
    // 120 us, then clean again. Only the victim observer can notice.
    s.faults.grey_link(2, 5, 1.0, fault_at, fault_at + Time::us(120));
    s.record_recovery_curve = true;
    sim::SiriusSim sim(s, w50);
    print_recovery("Grey link: 2 -> 5 blacked out 60-180 us (L=50%)",
                   sim.run(), fault_at);
  }
  return 0;
}
