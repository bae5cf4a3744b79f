// Fig. 9 — 99th-percentile FCT of short flows (<100 KB) and normalised
// average server goodput versus offered load, for Sirius, Sirius (Ideal),
// ESN (Ideal) and ESN-OSUB (Ideal).
//
// Scale via env: SIRIUS_RACKS, SIRIUS_SERVERS_PER_RACK, SIRIUS_UPLINKS,
// SIRIUS_FLOWS, SIRIUS_SEED (defaults: 64 racks x 8 servers, 20 k flows).
#include <cstdio>

#include "core/experiment.hpp"
#include <initializer_list>

using namespace sirius;
using namespace sirius::core;

int main() {
  const ExperimentConfig cfg = ExperimentConfig::from_env();
  std::printf("Fig 9: load sweep (%d racks x %d servers, %lld flows)\n",
              cfg.racks, cfg.servers_per_rack,
              static_cast<long long>(cfg.flows));
  print_metrics_header();

  for (const double load : {0.10, 0.25, 0.50, 0.75, 1.00}) {
    const auto w = make_workload(cfg, load);

    SiriusVariant sirius;                     // request/grant, Q=4, 1.5x
    SiriusVariant ideal = sirius;
    ideal.routing = sim::RoutingMode::kIdeal;

    print_metrics_row(run_esn(cfg, 1, w));
    print_metrics_row(run_esn(cfg, 3, w));
    print_metrics_row(run_sirius(cfg, sirius, w));
    print_metrics_row(run_sirius(cfg, ideal, w));
  }
  std::printf("\n(paper shape: Sirius tracks ESN (Ideal); ESN-OSUB is up to "
              "86%% worse FCT / 6.7x lower goodput at high load; "
              "Sirius (Ideal) beats Sirius on FCT at low load)\n");
  return 0;
}
