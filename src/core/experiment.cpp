#include "core/experiment.hpp"

#include <cstdio>

#include "common/config.hpp"

namespace sirius::core {

ExperimentConfig ExperimentConfig::from_env() {
  ExperimentConfig c;
  c.racks = static_cast<std::int32_t>(env_int_or("SIRIUS_RACKS", c.racks));
  c.servers_per_rack = static_cast<std::int32_t>(
      env_int_or("SIRIUS_SERVERS_PER_RACK", c.servers_per_rack));
  c.base_uplinks =
      static_cast<std::int32_t>(env_int_or("SIRIUS_UPLINKS", c.base_uplinks));
  c.flows = env_int_or("SIRIUS_FLOWS", c.flows);
  c.seed = static_cast<std::uint64_t>(
      env_int_or("SIRIUS_SEED", static_cast<std::int64_t>(c.seed)));
  return c;
}

workload::Workload make_workload(const ExperimentConfig& cfg, double load) {
  workload::GeneratorConfig g;
  g.servers = cfg.servers();
  g.server_rate = cfg.server_share();
  g.load = load;
  g.mean_flow_size = cfg.mean_flow_size;
  g.flow_count = cfg.flows;
  g.seed = cfg.seed;
  return workload::generate(g);
}

sim::SiriusSimConfig make_sirius_config(const ExperimentConfig& cfg,
                                        const SiriusVariant& v) {
  sim::SiriusSimConfig s;
  s.racks = cfg.racks;
  s.servers_per_rack = cfg.servers_per_rack;
  s.base_uplinks = cfg.base_uplinks;
  s.uplink_multiplier = v.uplink_multiplier;
  s.slots = phy::SlotGeometry::with_guardband_fraction(v.guardband,
                                                       cfg.channel);
  s.queue_limit = v.queue_limit;
  s.routing = v.routing;
  s.spread = v.spread;
  s.server_nic = cfg.channel;
  s.seed = cfg.seed;
  return s;
}

RunMetrics run_sirius(const ExperimentConfig& cfg, const SiriusVariant& v,
                      const workload::Workload& w,
                      telemetry::Hub* telemetry) {
  sim::SiriusSimConfig s = make_sirius_config(cfg, v);
  s.telemetry = telemetry;
  sim::SiriusSim sim(s, w);
  const sim::SiriusSimResult r = sim.run();
  RunMetrics m;
  m.system =
      v.routing == sim::RoutingMode::kIdeal ? "Sirius(Ideal)" : "Sirius";
  m.load = w.offered_load;
  m.short_fct_p99_ms = r.fct.short_fct_p99_ms;
  m.goodput = r.goodput_normalized;
  m.queue_peak_kb = r.worst_node_queue_peak_kb;
  m.reorder_peak_kb = r.worst_reorder_peak_kb;
  m.incomplete = r.incomplete_flows;
  return m;
}

RunMetrics run_sirius(const ExperimentConfig& cfg, const SiriusVariant& v,
                      double load) {
  const workload::Workload w = make_workload(cfg, load);
  return run_sirius(cfg, v, w);
}

RunMetrics run_esn(const ExperimentConfig& cfg, std::int32_t oversub,
                   const workload::Workload& w, telemetry::Hub* telemetry) {
  esn::EsnConfig e;
  e.racks = cfg.racks;
  e.servers_per_rack = cfg.servers_per_rack;
  e.server_rate = cfg.server_share();
  e.oversubscription = oversub;
  e.telemetry = telemetry;
  esn::EsnFluidSim sim(e, w);
  const esn::EsnSimResult r = sim.run();
  RunMetrics m;
  m.system = oversub > 1 ? "ESN-OSUB(Ideal)" : "ESN(Ideal)";
  m.load = w.offered_load;
  m.short_fct_p99_ms = r.fct.short_fct_p99_ms;
  m.goodput = r.goodput_normalized;
  return m;
}

RunMetrics run_esn(const ExperimentConfig& cfg, std::int32_t oversub,
                   double load) {
  const workload::Workload w = make_workload(cfg, load);
  return run_esn(cfg, oversub, w);
}

// The print_metrics_* helpers exist solely so the figure/CLI binaries share
// one table format; stdout is their contract.
void print_metrics_header() {
  // sirius-lint: allow(no-stdio)
  std::printf("%-16s %6s %14s %9s %12s %13s %10s\n", "system", "load",
              "fct99_short_ms", "goodput", "queue_pk_kb", "reorder_pk_kb",
              "incomplete");
}

void print_metrics_row(const RunMetrics& m) {
  // sirius-lint: allow(no-stdio)
  std::printf("%-16s %5.0f%% %14.4f %9.3f %12.1f %13.1f %10lld\n",
              m.system.c_str(), m.load * 100.0, m.short_fct_p99_ms, m.goodput,
              m.queue_peak_kb, m.reorder_peak_kb,
              static_cast<long long>(m.incomplete));
}

}  // namespace sirius::core
