// Fig. 11 — 99th-pct short-flow FCT at L = 100 % as the guardband varies
// in {1, 5, 10, 20, 40} ns, with the slot length rescaled so the guardband
// is always 10 % of the slot. Paper: FCT grows sharply beyond ~10 ns,
// motivating sub-10 ns end-to-end reconfiguration.
#include <cstdio>

#include "core/experiment.hpp"
#include <initializer_list>

using namespace sirius;
using namespace sirius::core;

int main() {
  const ExperimentConfig cfg = ExperimentConfig::from_env();
  std::printf("Fig 11: guardband sweep at L=100%% (%d racks x %d servers, "
              "%lld flows)\n",
              cfg.racks, cfg.servers_per_rack,
              static_cast<long long>(cfg.flows));
  std::printf("%-6s ", "G(ns)");
  print_metrics_header();

  const auto w = make_workload(cfg, 1.0);
  for (const std::int64_t g : {1, 5, 10, 20, 40}) {
    SiriusVariant v;
    v.guardband = Time::ns(g);
    const auto m = run_sirius(cfg, v, w);
    std::printf("%-6lld ", static_cast<long long>(g));
    print_metrics_row(m);

    SiriusVariant ideal = v;
    ideal.routing = sim::RoutingMode::kIdeal;
    const auto mi = run_sirius(cfg, ideal, w);
    std::printf("%-6lld ", static_cast<long long>(g));
    print_metrics_row(mi);
  }
  std::printf("\n(paper shape: FCT worsens as G grows — the epoch, and with "
              "it intermediate queuing delay, stretches proportionally)\n");
  return 0;
}
