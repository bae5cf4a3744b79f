// Cross-module integration tests: the public API and Fig. 9-style
// system comparisons on a reduced-scale network.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/network_api.hpp"

namespace sirius::core {
namespace {

ExperimentConfig tiny() {
  ExperimentConfig cfg;
  cfg.racks = 16;
  cfg.servers_per_rack = 4;
  cfg.base_uplinks = 4;
  cfg.flows = 3'000;
  cfg.seed = 5;
  return cfg;
}

TEST(NetworkApi, SendRunAndQueryFct) {
  SiriusNetwork net(make_sirius_config(tiny(), SiriusVariant{}));
  const FlowId a =
      net.send(0, 40, DataSize::kilobytes(20), Time::zero());
  const FlowId b =
      net.send(8, 52, DataSize::kilobytes(5), Time::us(1));
  auto r = net.run();
  EXPECT_EQ(r.flow_count(), 2u);
  EXPECT_FALSE(r.fct_of(a).is_infinite());
  EXPECT_FALSE(r.fct_of(b).is_infinite());
  EXPECT_GT(r.completion_of(b), Time::us(1));
  // Smaller flow, later start: its absolute completion may be earlier or
  // later, but both must beat a very loose bound.
  EXPECT_LT(r.fct_of(a), Time::ms(1));
  EXPECT_LT(r.fct_of(b), Time::ms(1));
}

TEST(NetworkApi, OutOfOrderSendsAreSorted) {
  SiriusNetwork net(make_sirius_config(tiny(), SiriusVariant{}));
  const FlowId late = net.send(0, 30, DataSize::kilobytes(1), Time::us(50));
  const FlowId early = net.send(5, 40, DataSize::kilobytes(1), Time::zero());
  auto r = net.run();
  EXPECT_FALSE(r.fct_of(late).is_infinite());
  EXPECT_FALSE(r.fct_of(early).is_infinite());
  EXPECT_LT(r.completion_of(early), r.completion_of(late));
}

TEST(NetworkApi, WorkloadAttach) {
  const ExperimentConfig cfg = tiny();
  SiriusNetwork net(make_sirius_config(cfg, SiriusVariant{}));
  net.add_workload(make_workload(cfg, 0.2));
  auto r = net.run();
  EXPECT_EQ(r.flow_count(), static_cast<std::size_t>(cfg.flows));
  EXPECT_EQ(r.raw().incomplete_flows, 0);
}

TEST(Fig9Shape, SiriusTracksIdealEsnAndBeatsOversubscribed) {
  const ExperimentConfig cfg = tiny();
  const auto w = make_workload(cfg, 1.0);
  const RunMetrics sirius = run_sirius(cfg, SiriusVariant{}, w);
  const RunMetrics esn = run_esn(cfg, 1, w);
  const RunMetrics osub = run_esn(cfg, 3, w);

  // Fig. 9b at high load: Sirius approaches the non-blocking ideal and
  // clearly beats the oversubscribed fabric.
  EXPECT_GT(sirius.goodput, esn.goodput * 0.75);
  EXPECT_GT(sirius.goodput, osub.goodput * 1.1);
  EXPECT_EQ(sirius.incomplete, 0);
}

TEST(Fig9Shape, IdealSiriusLowerFctAtLowLoad) {
  // §7: the request/grant round trip penalises short flows at low load;
  // the idealised variant is faster. Use tiny flows so the startup epoch
  // dominates the FCT instead of serialisation.
  ExperimentConfig cfg = tiny();
  cfg.mean_flow_size = DataSize::kilobytes(2);
  const auto w = make_workload(cfg, 0.1);
  SiriusVariant real;
  SiriusVariant ideal;
  ideal.routing = sim::RoutingMode::kIdeal;
  const RunMetrics r_real = run_sirius(cfg, real, w);
  const RunMetrics r_ideal = run_sirius(cfg, ideal, w);
  EXPECT_LT(r_ideal.short_fct_p99_ms, r_real.short_fct_p99_ms);
}

TEST(Fig11Shape, LargerGuardbandWorsensFct) {
  const ExperimentConfig cfg = tiny();
  SiriusVariant g1;
  g1.guardband = Time::ns(1);
  SiriusVariant g40;
  g40.guardband = Time::ns(40);
  // Same offered load; the guardband sweep rescales cells/slots (Fig. 11).
  const RunMetrics small = run_sirius(cfg, g1, 0.8);
  const RunMetrics large = run_sirius(cfg, g40, 0.8);
  EXPECT_LT(small.short_fct_p99_ms, large.short_fct_p99_ms);
}

TEST(ExperimentConfig, EnvOverrides) {
  ::setenv("SIRIUS_RACKS", "32", 1);
  ::setenv("SIRIUS_FLOWS", "1234", 1);
  const ExperimentConfig cfg = ExperimentConfig::from_env();
  EXPECT_EQ(cfg.racks, 32);
  EXPECT_EQ(cfg.flows, 1234);
  ::unsetenv("SIRIUS_RACKS");
  ::unsetenv("SIRIUS_FLOWS");
}

TEST(ExperimentConfig, ServerShareArithmetic) {
  ExperimentConfig cfg;
  cfg.racks = 128;
  cfg.servers_per_rack = 24;
  cfg.base_uplinks = 8;
  // 8 x 50 Gbps uplinks over 24 servers = 16.67 Gbps provisioned each.
  EXPECT_NEAR(cfg.server_share().in_gbps(), 16.67, 0.01);
}

}  // namespace
}  // namespace sirius::core
