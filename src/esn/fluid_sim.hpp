// Idealised electrically-switched network (ESN) baseline (§7).
//
// The paper's baseline is deliberately idealised: a folded-Clos fabric with
// per-flow queues, back-pressure at every switch, and packet spraying over
// all paths — an upper bound for any real routing/congestion-control
// combination. Under those assumptions the fabric core never congests
// (non-blocking) and the only capacity constraints are the server NICs
// plus, in the oversubscribed variant, each rack's uplink capacity.
//
// That idealisation is *exactly* a max-min fair fluid model, which we
// simulate event-by-event: on every flow arrival/completion we recompute
// the global max-min allocation by progressive filling and advance all
// remaining-byte counters analytically. The same machinery with zero core
// constraints also provides the generic "ideal fabric" used in tests.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "stats/fct_tracker.hpp"
#include "stats/goodput.hpp"
#include "telemetry/hub.hpp"
#include "workload/flow.hpp"

namespace sirius::esn {

struct EsnConfig {
  std::int32_t racks = 64;
  std::int32_t servers_per_rack = 8;
  /// Per-server access rate (NIC / ToR port).
  DataRate server_rate = DataRate::gbps(50);
  /// Aggregation-tier oversubscription: 1 = non-blocking ("ESN (Ideal)"),
  /// 3 = 3:1 ("ESN-OSUB (Ideal)").
  std::int32_t oversubscription = 1;
  /// Base propagation + switching latency added to every flow (store and
  /// forward through the Clos tiers).
  Time base_latency = Time::us(2);
  /// Telemetry sink; null means a private disabled hub (see
  /// sim::SiriusSimConfig::telemetry for the contract).
  telemetry::Hub* telemetry = nullptr;

  [[nodiscard]] std::int32_t servers() const { return racks * servers_per_rack; }
};

struct EsnSimResult {
  stats::FctSummary fct;
  double goodput_normalized = 0.0;
  std::int64_t completed_flows = 0;
  Time sim_end;
};

/// Runs the fluid baseline over `workload`.
class EsnFluidSim {
 public:
  EsnFluidSim(EsnConfig cfg, const workload::Workload& workload);

  EsnSimResult run();

 private:
  struct ActiveFlow {
    std::size_t wl_index;      // index into workload_.flows
    double remaining_bits;
    double rate_bps = 0.0;
    std::int32_t constraints[4];
    std::int32_t n_constraints;
    bool frozen;               // scratch for the water-filling pass
  };

  void recompute_rates();
  [[nodiscard]] std::int32_t src_constraint(const workload::Flow& f) const;
  [[nodiscard]] std::int32_t dst_constraint(const workload::Flow& f) const;
  [[nodiscard]] std::int32_t rack_up_constraint(const workload::Flow& f) const;
  [[nodiscard]] std::int32_t rack_down_constraint(const workload::Flow& f) const;

  EsnConfig cfg_;
  const workload::Workload& workload_;
  std::vector<double> capacity_;  // per constraint, bits/sec

  std::vector<ActiveFlow> active_;
  stats::FctTracker fct_;
  stats::GoodputMeter goodput_;
  Time measure_end_;

  // recompute_rates() scratch, owned by the solver instance so the
  // water-filling pass carries no function-static state: one process runs
  // many sims (sirius_cli fork/bisect, gtest), and these must not leak
  // between them.
  std::vector<double> scratch_cap_;
  std::vector<std::int32_t> scratch_cnt_;
  std::vector<std::vector<std::int32_t>> scratch_members_;
  std::vector<std::int32_t> scratch_touched_;

  // Telemetry spine (see sim::SiriusSim): counters bound once at
  // construction, bumped through the pointers.
  std::unique_ptr<telemetry::Hub> own_hub_;
  telemetry::Hub* hub_ = nullptr;
  telemetry::Counter* c_completed_ = nullptr;
  telemetry::Counter* c_recomputes_ = nullptr;
  telemetry::Gauge* g_active_ = nullptr;
};

}  // namespace sirius::esn
