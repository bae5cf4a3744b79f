// Experiment runner shared by the bench binaries: builds §7 workloads,
// runs the four systems (Sirius, Sirius (Ideal), ESN (Ideal),
// ESN-OSUB (Ideal)) and returns the figure metrics.
//
// Scale is environment-overridable so the same binaries reproduce either
// the quick default (64 racks x 8 servers, 20 k flows — minutes on one
// core) or the paper's full configuration (SIRIUS_RACKS=128
// SIRIUS_SERVERS_PER_RACK=24 SIRIUS_FLOWS=200000).
#pragma once

#include <cstdint>
#include <string>

#include "esn/fluid_sim.hpp"
#include "sim/sirius_sim.hpp"
#include "workload/generator.hpp"

namespace sirius::core {

/// Scale and workload knobs common to every §7 experiment.
struct ExperimentConfig {
  std::int32_t racks = 64;
  std::int32_t servers_per_rack = 8;
  std::int32_t base_uplinks = 8;
  DataRate channel = DataRate::gbps(50);
  std::int64_t flows = 20'000;
  DataSize mean_flow_size = DataSize::kilobytes(100);
  std::uint64_t seed = 1;

  std::int32_t servers() const { return racks * servers_per_rack; }
  DataRate server_share() const {
    return (channel * base_uplinks) / servers_per_rack;
  }

  /// Reads SIRIUS_RACKS, SIRIUS_SERVERS_PER_RACK, SIRIUS_UPLINKS,
  /// SIRIUS_FLOWS, SIRIUS_SEED from the environment over the defaults.
  static ExperimentConfig from_env();
};

/// Per-system knobs layered on the base config.
struct SiriusVariant {
  double uplink_multiplier = 1.5;
  std::int32_t queue_limit = 4;
  Time guardband = Time::ns(10);
  sim::RoutingMode routing = sim::RoutingMode::kValiant;
  cc::SpreadPolicy spread = cc::SpreadPolicy::kDesynchronized;
};

/// The metrics every figure draws from.
struct RunMetrics {
  std::string system;
  double load = 0.0;
  double short_fct_p99_ms = 0.0;
  double goodput = 0.0;
  double queue_peak_kb = 0.0;    ///< Sirius only (Fig. 10c)
  double reorder_peak_kb = 0.0;  ///< Sirius only (Fig. 10d)
  std::int64_t incomplete = 0;
};

/// Generates the §7 workload for a given load and mean flow size.
workload::Workload make_workload(const ExperimentConfig& cfg, double load);

/// Runs Sirius (request/grant or ideal) at `load`. `telemetry`, when
/// non-null, is attached to the underlying simulation for the run (see
/// sim::SiriusSimConfig::telemetry).
RunMetrics run_sirius(const ExperimentConfig& cfg, const SiriusVariant& v,
                      double load);
RunMetrics run_sirius(const ExperimentConfig& cfg, const SiriusVariant& v,
                      const workload::Workload& w,
                      telemetry::Hub* telemetry = nullptr);

/// Runs the idealised electrical baseline (`oversub` = 1 or 3).
RunMetrics run_esn(const ExperimentConfig& cfg, std::int32_t oversub,
                   double load);
RunMetrics run_esn(const ExperimentConfig& cfg, std::int32_t oversub,
                   const workload::Workload& w,
                   telemetry::Hub* telemetry = nullptr);

/// Builds the SiriusSimConfig for a variant (exposed for tests/examples).
sim::SiriusSimConfig make_sirius_config(const ExperimentConfig& cfg,
                                        const SiriusVariant& v);

/// Prints one CSV-style metrics row ("system,load,fct_p99_ms,goodput,...").
void print_metrics_row(const RunMetrics& m);
void print_metrics_header();

}  // namespace sirius::core
