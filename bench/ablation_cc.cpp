// Ablation — what each piece of the congestion-control design buys:
//   * request/grant vs the idealised per-flow-queue variant (protocol
//     overhead at low load, §7's Sirius vs Sirius (Ideal));
//   * the queue bound Q as back-pressure: Q=2 vs 4 vs effectively-unbounded
//     (Q=64) under a hot-spot (incast-like) traffic pattern where many
//     sources target one rack.
#include <cstdio>

#include "core/experiment.hpp"
#include "core/network_api.hpp"
#include <initializer_list>

using namespace sirius;
using namespace sirius::core;

namespace {

// Hot-spot (incast) workload: every server outside rack 0 sends two 50 KB
// flows into rack 0 within a 100 us window — far beyond the victim rack's
// ingress capacity, so the congestion control is the only thing standing
// between the relays and unbounded queues.
workload::Workload hotspot(const ExperimentConfig& cfg) {
  workload::Workload w;
  w.servers = cfg.servers();
  w.server_rate = cfg.server_share();
  w.offered_load = 1.0;
  Rng rng(99);
  FlowId id = 0;
  for (std::int32_t s = cfg.servers_per_rack; s < cfg.servers(); ++s) {
    for (int k = 0; k < 2; ++k) {
      workload::Flow f;
      f.id = id++;
      f.src_server = s;
      f.dst_server =
          static_cast<std::int32_t>(rng.below(cfg.servers_per_rack));
      f.size = DataSize::kilobytes(50);
      f.arrival = Time::us(static_cast<std::int64_t>(rng.below(100)));
      w.flows.push_back(f);
    }
  }
  std::sort(w.flows.begin(), w.flows.end(),
            [](const auto& a, const auto& b) { return a.arrival < b.arrival; });
  for (std::size_t i = 0; i < w.flows.size(); ++i) {
    w.flows[i].id = static_cast<FlowId>(i);
  }
  return w;
}

}  // namespace

int main() {
  const ExperimentConfig cfg = ExperimentConfig::from_env();

  std::printf("Ablation A: protocol overhead at low load, tiny flows\n");
  {
    ExperimentConfig small = cfg;
    small.mean_flow_size = DataSize::kilobytes(2);
    const auto w = make_workload(small, 0.1);
    SiriusVariant rg, ideal;
    ideal.routing = sim::RoutingMode::kIdeal;
    print_metrics_header();
    print_metrics_row(run_sirius(small, rg, w));
    print_metrics_row(run_sirius(small, ideal, w));
    std::printf("(the request/grant round adds ~an epoch of startup "
                "latency; paper: 63%% higher FCT at L=10%%)\n\n");
  }

  std::printf("Ablation B: queue bound under a hot-spot pattern\n");
  {
    const auto w = hotspot(cfg);
    std::printf("%-4s ", "Q");
    print_metrics_header();
    for (const std::int32_t q : {2, 4, 64}) {
      SiriusVariant v;
      v.queue_limit = q;
      const auto m = run_sirius(cfg, v, w);
      std::printf("%-4d ", q);
      print_metrics_row(m);
    }
    std::printf("(Q bounds intermediate queuing even under incast: "
                "occupancy grows with Q while goodput saturates)\n");
  }
  return 0;
}
