// Tests for the slot-synchronous Sirius simulator (sim/).
#include <gtest/gtest.h>

#include "sim/event_queue.hpp"
#include "sim/sirius_sim.hpp"
#include "workload/generator.hpp"

namespace sirius::sim {
namespace {

SiriusSimConfig small_net() {
  SiriusSimConfig cfg;
  cfg.racks = 16;
  cfg.servers_per_rack = 4;
  cfg.base_uplinks = 4;
  cfg.uplink_multiplier = 1.5;
  cfg.seed = 3;
  return cfg;
}

workload::Workload make_load(const SiriusSimConfig& net, double load,
                             std::int64_t flows,
                             DataSize mean = DataSize::kilobytes(100)) {
  workload::GeneratorConfig g;
  g.servers = net.servers();
  g.server_rate = net.server_share();
  g.load = load;
  g.flow_count = flows;
  g.mean_flow_size = mean;
  g.max_flow_size = DataSize::megabytes(5);
  g.seed = 11;
  return workload::generate(g);
}

workload::Workload single_flow(const SiriusSimConfig& net, DataSize size) {
  workload::Workload w;
  w.servers = net.servers();
  w.server_rate = net.server_share();
  w.offered_load = 0.0;
  w.mean_flow_size = size;
  workload::Flow f;
  f.id = 0;
  f.src_server = 0;
  f.dst_server = net.servers() - 1;  // a different rack
  f.size = size;
  f.arrival = Time::zero();
  w.flows.push_back(f);
  return w;
}

TEST(EventQueue, OrdersByTimeThenFifo) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(Time::ns(20), [&] { order.push_back(2); });
  q.schedule_at(Time::ns(10), [&] { order.push_back(1); });
  q.schedule_at(Time::ns(20), [&] { order.push_back(3); });
  q.run_until();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), Time::ns(20));
}

TEST(EventQueue, RunUntilStopsAtHorizon) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(Time::ns(5), [&] { ++fired; });
  q.schedule_at(Time::ns(50), [&] { ++fired; });
  EXPECT_EQ(q.run_until(Time::ns(10)), 1);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, DrainAdvancesNowToHorizon) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(Time::ns(5), [&] { ++fired; });
  q.run_until(Time::ns(100));
  // The queue drained before the horizon, but time still advances to it:
  // a subsequent schedule_in() must anchor at the horizon, not at the last
  // event, or relative delays silently shrink.
  EXPECT_EQ(q.now(), Time::ns(100));
  q.schedule_in(Time::ns(10), [&] { ++fired; });
  q.run_until();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), Time::ns(110));
}

TEST(EventQueue, UnboundedDrainKeepsLastEventTime) {
  EventQueue q;
  q.schedule_at(Time::ns(7), [] {});
  q.run_until();  // infinite horizon: now() stays at the last event
  EXPECT_EQ(q.now(), Time::ns(7));
}

TEST(EventQueue, NestedScheduling) {
  EventQueue q;
  int depth = 0;
  q.schedule_at(Time::ns(1), [&] {
    q.schedule_in(Time::ns(1), [&] { depth = 2; });
    depth = 1;
  });
  q.run_until();
  EXPECT_EQ(depth, 2);
}

TEST(SiriusSim, SingleFlowCompletes) {
  const SiriusSimConfig cfg = small_net();
  const auto w = single_flow(cfg, DataSize::kilobytes(10));
  SiriusSim sim(cfg, w);
  const auto r = sim.run();
  EXPECT_EQ(r.incomplete_flows, 0);
  EXPECT_EQ(r.fct.completed_flows, 1);
  ASSERT_EQ(r.per_flow_completion.size(), 1u);
  EXPECT_FALSE(r.per_flow_completion[0].is_infinite());
  // 10 KB = 18 cells; with request/grant pacing over ~2-slot rounds this is
  // tens of microseconds at most on an idle network.
  EXPECT_LT(r.per_flow_completion[0], Time::us(100));
  // And never faster than the pure serialisation bound.
  EXPECT_GT(r.per_flow_completion[0], Time::us(1));
}

TEST(SiriusSim, SingleFlowIdealFasterThanRequestGrant) {
  // The request/grant round costs roughly an epoch of startup latency
  // (§4.3); the ideal mode has no such round.
  const SiriusSimConfig cfg = small_net();
  const auto w = single_flow(cfg, DataSize::kilobytes(50));
  SiriusSim rg(cfg, w);
  const Time t_rg = rg.run().per_flow_completion[0];
  SiriusSimConfig ideal_cfg = cfg;
  ideal_cfg.routing = RoutingMode::kIdeal;
  SiriusSim ideal(ideal_cfg, w);
  const Time t_ideal = ideal.run().per_flow_completion[0];
  EXPECT_LT(t_ideal, t_rg);
}

TEST(SiriusSim, IntraRackFlowBypassesOptics) {
  SiriusSimConfig cfg = small_net();
  workload::Workload w;
  w.servers = cfg.servers();
  w.server_rate = cfg.server_share();
  workload::Flow f;
  f.id = 0;
  f.src_server = 0;
  f.dst_server = 1;  // same rack of 4 servers
  f.size = DataSize::kilobytes(10);
  f.arrival = Time::zero();
  w.flows.push_back(f);
  SiriusSim sim(cfg, w);
  const auto r = sim.run();
  EXPECT_EQ(r.incomplete_flows, 0);
  // 10 KB at 50 Gbps = 1.6 us + 500 ns switch latency: well under 5 us.
  EXPECT_LT(r.per_flow_completion[0], Time::us(5));
  EXPECT_EQ(r.cells_delivered, 0);  // nothing crossed the optical core
}

TEST(SiriusSim, AllFlowsCompleteAtModerateLoad) {
  const SiriusSimConfig cfg = small_net();
  const auto w = make_load(cfg, 0.3, 2'000);
  SiriusSim sim(cfg, w);
  const auto r = sim.run();
  EXPECT_EQ(r.incomplete_flows, 0);
  EXPECT_EQ(r.fct.completed_flows, 2'000);
  EXPECT_GT(r.cells_delivered, 0);
}

TEST(SiriusSim, GoodputTracksOfferedLoadWhenUnderloaded) {
  const SiriusSimConfig cfg = small_net();
  for (double load : {0.1, 0.3}) {
    const auto w = make_load(cfg, load, 4'000);
    // The heavy-tailed sizes are capped, so compare against the bytes the
    // workload actually offers within the arrival window, not nominal L.
    const double offered =
        static_cast<double>(w.total_bytes().in_bits()) /
        (static_cast<double>(cfg.server_share().bits_per_sec()) *
         cfg.servers() * w.last_arrival().to_sec());
    SiriusSim sim(cfg, w);
    const auto r = sim.run();
    EXPECT_EQ(r.incomplete_flows, 0);
    // Some delivery spills past the window; tolerance is generous.
    EXPECT_GT(r.goodput_normalized, offered * 0.6) << "load " << load;
    EXPECT_LT(r.goodput_normalized, offered * 1.1) << "load " << load;
  }
}

TEST(SiriusSim, QueueOccupancyBoundedByQ) {
  // Fig. 10c's premise: with queue limit Q, an intermediate holds at most
  // Q cells per destination, so a node's forward queues are bounded by
  // Q * (N-1) cells; virtual queues add a little on top but the total
  // must stay within the same order.
  SiriusSimConfig cfg = small_net();
  cfg.queue_limit = 4;
  const auto w = make_load(cfg, 0.8, 4'000);
  SiriusSim sim(cfg, w);
  const auto r = sim.run();
  // Queue occupancy is bounded by Q per (intermediate, destination) plus a
  // small wire-flight overshoot (grant accounting releases at transmit
  // time) plus transient virtual-queue backlog: 4x the pure Q bound covers
  // all three with margin.
  const double hard_bound_kb =
      5.0 * cfg.queue_limit * (cfg.racks - 1) * 562.0 * 1e-3;
  EXPECT_LT(r.worst_node_queue_peak_kb, hard_bound_kb);
  EXPECT_GT(r.worst_node_queue_peak_kb, 0.0);
}

TEST(SiriusSim, LargerQAllowsDeeperQueues) {
  SiriusSimConfig cfg = small_net();
  const auto w = make_load(cfg, 1.0, 4'000);
  cfg.queue_limit = 2;
  const double q2 = SiriusSim(cfg, w).run().worst_node_queue_peak_kb;
  cfg.queue_limit = 16;
  const double q16 = SiriusSim(cfg, w).run().worst_node_queue_peak_kb;
  EXPECT_GT(q16, q2);
}

TEST(SiriusSim, ReorderBufferSmallAtLowLoad) {
  const SiriusSimConfig cfg = small_net();
  const auto w = make_load(cfg, 0.2, 2'000);
  SiriusSim sim(cfg, w);
  const auto r = sim.run();
  // Low queuing -> little path-delay spread -> small reorder buffers.
  EXPECT_LT(r.worst_reorder_peak_kb, 200.0);
}

TEST(SiriusSim, MoreUplinksImproveHighLoadGoodput) {
  SiriusSimConfig cfg = small_net();
  // Nominal load 2.5 saturates the network even after the flow-size cap
  // trims the heavy tail; saturation is where uplink count matters.
  const auto w = make_load(cfg, 2.5, 6'000);
  cfg.uplink_multiplier = 1.0;
  const double g1 = SiriusSim(cfg, w).run().goodput_normalized;
  cfg.uplink_multiplier = 2.0;
  const double g2 = SiriusSim(cfg, w).run().goodput_normalized;
  EXPECT_GT(g2, g1 * 1.1);  // Fig. 12's effect
}

TEST(SiriusSim, DeterministicForSeed) {
  const SiriusSimConfig cfg = small_net();
  const auto w = make_load(cfg, 0.5, 1'000);
  const auto a = SiriusSim(cfg, w).run();
  const auto b = SiriusSim(cfg, w).run();
  EXPECT_EQ(a.cells_delivered, b.cells_delivered);
  EXPECT_EQ(a.slots_simulated, b.slots_simulated);
  EXPECT_DOUBLE_EQ(a.goodput_normalized, b.goodput_normalized);
}

// Parameterised sweep: the simulator must terminate with zero incomplete
// flows across loads and queue limits (the drain cap is a bug backstop,
// not an expected exit).
class SimSweep : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(SimSweep, CompletesCleanly) {
  const auto [load, q] = GetParam();
  SiriusSimConfig cfg = small_net();
  cfg.queue_limit = q;
  const auto w = make_load(cfg, load, 1'500);
  SiriusSim sim(cfg, w);
  const auto r = sim.run();
  EXPECT_EQ(r.incomplete_flows, 0) << "load " << load << " Q " << q;
}

INSTANTIATE_TEST_SUITE_P(
    LoadAndQ, SimSweep,
    ::testing::Combine(::testing::Values(0.1, 0.5, 1.0),
                       ::testing::Values(2, 4, 16)));

TEST(SiriusSim, DirectRoutingCompletesUniformTraffic) {
  SiriusSimConfig cfg = small_net();
  cfg.routing = RoutingMode::kDirect;
  const auto w = make_load(cfg, 0.3, 1'500);
  SiriusSim sim(cfg, w);
  const auto r = sim.run();
  EXPECT_EQ(r.incomplete_flows, 0);
  // No congestion-control traffic at all in direct mode.
  EXPECT_EQ(r.requests_sent, 0);
  EXPECT_EQ(r.grants_issued, 0);
  EXPECT_EQ(r.slots_tx_relay, 0);
}

TEST(SiriusSim, DirectRoutingStarvesHotPairs) {
  // One rack pair exchanging heavy traffic: direct routing caps the pair
  // at uplinks/(N-1) of the node bandwidth; Valiant uses all uplinks.
  SiriusSimConfig cfg = small_net();
  workload::Workload w;
  w.servers = cfg.servers();
  w.server_rate = cfg.server_share();
  w.offered_load = 1.0;
  for (FlowId id = 0; id < 8; ++id) {
    workload::Flow f;
    f.id = id;
    f.src_server = static_cast<std::int32_t>(id % 4);           // rack 0
    f.dst_server = cfg.servers_per_rack + static_cast<std::int32_t>(id % 4);
    f.size = DataSize::kilobytes(200);
    f.arrival = Time::zero();
    w.flows.push_back(f);
  }
  SiriusSimConfig direct = cfg;
  direct.routing = RoutingMode::kDirect;
  const auto r_direct = SiriusSim(direct, w).run();
  const auto r_valiant = SiriusSim(cfg, w).run();
  ASSERT_EQ(r_direct.incomplete_flows, 0);
  ASSERT_EQ(r_valiant.incomplete_flows, 0);
  // Valiant finishes the transfer several times faster.
  EXPECT_LT(r_valiant.sim_end.picoseconds(),
            r_direct.sim_end.picoseconds() / 2);
}

TEST(SiriusSim, ProtocolCountersConsistent) {
  // Conservation invariants over the protocol counters: every first-hop
  // transmission was granted; grants never exceed requests; delivered
  // cells equal the workload's inter-rack cell count.
  const SiriusSimConfig cfg = small_net();
  const auto w = make_load(cfg, 0.6, 2'000);
  SiriusSim sim(cfg, w);
  const auto r = sim.run();
  EXPECT_EQ(r.incomplete_flows, 0);
  EXPECT_LE(r.grants_issued, r.requests_sent);
  EXPECT_EQ(r.slots_tx_first, r.grants_issued - r.grants_released);
  // Second-hop transmissions: first-hop cells that did not land directly
  // on their destination.
  EXPECT_LE(r.slots_tx_relay, r.slots_tx_first);
  std::int64_t expected_cells = 0;
  for (const auto& f : w.flows) {
    const bool intra = f.src_server / cfg.servers_per_rack ==
                       f.dst_server / cfg.servers_per_rack;
    if (!intra) {
      expected_cells +=
          node::cells_for(f.size, cfg.slots.cell_size());
    }
  }
  EXPECT_EQ(r.cells_delivered, expected_cells);
  EXPECT_EQ(r.slots_tx_first, expected_cells);
}

TEST(SiriusSim, GrantDenialsAppearUnderQPressure) {
  SiriusSimConfig cfg = small_net();
  cfg.queue_limit = 2;
  const auto w = make_load(cfg, 1.5, 3'000);
  SiriusSim sim(cfg, w);
  const auto r = sim.run();
  EXPECT_GT(r.grants_denied_q, 0);
}

// Parameterised shape sweep: the simulator must run correctly across
// network geometries, including the server-based deployment (1 server per
// node, §4: servers attach directly to the optical core) and non-divisible
// uplink counts.
class ShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, double>> {};

TEST_P(ShapeSweep, CompletesAndConservesFlows) {
  const auto [racks, servers_per_rack, uplinks, mult] = GetParam();
  SiriusSimConfig cfg;
  cfg.racks = racks;
  cfg.servers_per_rack = servers_per_rack;
  cfg.base_uplinks = uplinks;
  cfg.uplink_multiplier = mult;
  cfg.seed = 17;
  const auto w = make_load(cfg, 0.4, 800);
  SiriusSim sim(cfg, w);
  const auto r = sim.run();
  EXPECT_EQ(r.incomplete_flows, 0);
  EXPECT_EQ(r.fct.completed_flows, 800);
  EXPECT_GT(r.goodput_normalized, 0.0);
  // Every completion is recorded.
  for (const Time t : r.per_flow_completion) {
    EXPECT_FALSE(t.is_infinite());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ShapeSweep,
    ::testing::Values(
        std::make_tuple(8, 4, 4, 1.5),    // small rack-based
        std::make_tuple(32, 1, 4, 1.5),   // server-based deployment
        std::make_tuple(16, 8, 6, 1.0),   // no Valiant headroom
        std::make_tuple(12, 2, 5, 2.0),   // ragged (N-1 not divisible)
        std::make_tuple(48, 2, 8, 1.5))); // wider fan-out

}  // namespace
}  // namespace sirius::sim
