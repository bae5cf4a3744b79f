// Ablation — why load-balanced routing (§4.1/§4.2).
//
// "While Sirius' topology is flat ... by itself the topology provides
//  direct connectivity between any pairs of nodes through only one of
//  their uplink ports. So, with simple direct routing, the nodes would
//  only be able to communicate directly with a fraction of their total
//  uplink bandwidth."
//
// Direct-only routing gives each pair exactly uplinks/(N-1) of a node's
// bandwidth. Under the uniform §7 mix the deficit hides at low load but
// at skewed or heavy traffic the stranded capacity shows immediately;
// Valiant detouring converts any matrix into the uniform one the static
// schedule serves.
#include <cstdio>
#include <initializer_list>

#include "core/experiment.hpp"

using namespace sirius;
using namespace sirius::core;

namespace {

RunMetrics run_mode(const ExperimentConfig& cfg, sim::RoutingMode mode,
                    const workload::Workload& w, const char* label) {
  RunMetrics m = run_sirius(cfg, SiriusVariant{.routing = mode}, w);
  m.system = label;
  return m;
}

// A few racks exchange heavy pairwise traffic (the skew that breaks
// direct routing: each hot pair owns only uplinks/(N-1) of the node).
workload::Workload skewed(const ExperimentConfig& cfg) {
  workload::Workload w;
  w.servers = cfg.servers();
  w.server_rate = cfg.server_share();
  w.offered_load = 1.0;
  Rng rng(5);
  FlowId id = 0;
  for (std::int32_t pair = 0; pair < 8; ++pair) {
    const std::int32_t src_rack = 2 * pair;
    const std::int32_t dst_rack = 2 * pair + 1;
    for (int k = 0; k < 24; ++k) {
      workload::Flow f;
      f.id = id++;
      f.src_server = src_rack * cfg.servers_per_rack +
                     static_cast<std::int32_t>(rng.below(
                         static_cast<std::uint64_t>(cfg.servers_per_rack)));
      f.dst_server = dst_rack * cfg.servers_per_rack +
                     static_cast<std::int32_t>(rng.below(
                         static_cast<std::uint64_t>(cfg.servers_per_rack)));
      f.size = DataSize::kilobytes(200);
      f.arrival = Time::us(static_cast<std::int64_t>(rng.below(20)));
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
  std::printf("Routing ablation (%d racks, %lld flows)\n\n", cfg.racks,
              static_cast<long long>(cfg.flows));

  std::printf("Uniform Sec-7 mix:\n");
  print_metrics_header();
  for (const double load : {0.25, 0.75}) {
    const auto w = make_workload(cfg, load);
    print_metrics_row(run_mode(cfg, sim::RoutingMode::kValiant, w,
                               "Valiant+CC"));
    print_metrics_row(run_mode(cfg, sim::RoutingMode::kDirect, w,
                               "direct-only"));
  }

  std::printf("\nSkewed rack-pair traffic (8 hot pairs):\n");
  print_metrics_header();
  {
    const auto w = skewed(cfg);
    print_metrics_row(run_mode(cfg, sim::RoutingMode::kValiant, w,
                               "Valiant+CC"));
    print_metrics_row(run_mode(cfg, sim::RoutingMode::kDirect, w,
                               "direct-only"));
  }
  std::printf("\n(a hot pair owns %d/%d of its node's slots under direct "
              "routing; Valiant spreads it across every uplink)\n",
              1, cfg.racks - 1);
  return 0;
}
