// Trace replay + failure drill: generate a §7 workload, persist it as a
// CSV trace, reload it, and replay the identical flows through (a) the
// healthy network, (b) the network with two failed racks running the
// adjusted alive-set schedule, and (c) the idealised ESN — the workflow an
// operator would use to evaluate Sirius against production traces.
#include <cstdio>
#include <string>

#include "core/experiment.hpp"
#include "esn/fluid_sim.hpp"
#include "sim/sirius_sim.hpp"
#include "workload/trace_io.hpp"

using namespace sirius;
using namespace sirius::core;

int main() {
  ExperimentConfig cfg;
  cfg.racks = 32;
  cfg.servers_per_rack = 4;
  cfg.base_uplinks = 4;
  cfg.flows = 5'000;

  // 1. Generate and persist.
  const auto generated = make_workload(cfg, 0.5);
  const std::string path = "/tmp/sirius_trace_example.csv";
  if (!workload::save_trace_csv(generated, path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("saved %zu flows (%s) to %s\n", generated.flows.size(),
              generated.total_bytes().to_string().c_str(), path.c_str());

  // 2. Reload — this is where a real production trace would come in.
  auto loaded = workload::load_trace_csv(path, cfg.servers(),
                                         cfg.server_share());
  if (!loaded.has_value()) {
    std::fprintf(stderr, "trace reload failed\n");
    return 1;
  }
  loaded->offered_load = 0.5;

  // 3. Replay.
  std::printf("\nreplaying the trace:\n");
  print_metrics_header();
  {
    auto m = run_sirius(cfg, SiriusVariant{}, *loaded);
    print_metrics_row(m);
  }
  {
    sim::SiriusSimConfig broken = make_sirius_config(cfg, SiriusVariant{});
    broken.faults.fail_rack(3, Time::zero());
    broken.faults.fail_rack(17, Time::zero());
    sim::SiriusSim sim(broken, *loaded);
    const auto r = sim.run();
    std::printf("%-16s %5.0f%% %14.4f %9.3f %12.1f %13.1f %10lld"
                "   (+%lld flows rejected: endpoints on failed racks)\n",
                "Sirius-2failed", 50.0, r.fct.short_fct_p99_ms,
                r.goodput_normalized, r.worst_node_queue_peak_kb,
                r.worst_reorder_peak_kb,
                static_cast<long long>(r.incomplete_flows),
                static_cast<long long>(r.rejected_flows));
  }
  {
    auto m = run_esn(cfg, 1, *loaded);
    print_metrics_row(m);
  }
  std::printf("\nIdentical arrivals, three systems: the CSV is the contract."
              "\n");
  std::remove(path.c_str());
  return 0;
}
