// Unit and end-to-end tests for src/telemetry/: metrics registry and
// sampler, strip charts, cell tracer, flight recorder (including the
// invariant-failure dump), profiler, manifest, and the determinism
// contract — a fully instrumented run must be bit-identical to an
// uninstrumented one.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/invariant.hpp"
#include "core/experiment.hpp"
#include "sim/sirius_sim.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/series.hpp"

namespace sirius::telemetry {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(MetricsRegistry, GetOrCreateReturnsStableIdentity) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.count");
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.inc();
  b.inc(4);
  EXPECT_EQ(reg.find_counter("x.count")->value(), 5);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);

  Gauge& g = reg.gauge("x.depth");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(reg.find_gauge("x.depth")->value(), 2.5);
}

TEST(MetricsRegistry, SeriesOrderIsCountersThenGauges) {
  MetricsRegistry reg;
  reg.gauge("g.one").set(7.0);
  reg.counter("c.one").inc(3);
  reg.counter("c.two").inc(9);
  const auto names = reg.series_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "c.one");
  EXPECT_EQ(names[1], "c.two");
  EXPECT_EQ(names[2], "g.one");
  const auto values = reg.series_values();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[0], 3.0);
  EXPECT_DOUBLE_EQ(values[1], 9.0);
  EXPECT_DOUBLE_EQ(values[2], 7.0);
}

TEST(MetricsRegistry, HistogramSummaryJson) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", 0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(static_cast<double>(i));
  const std::string json = reg.histograms_json();
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
}

TEST(TimeSeriesSampler, CadenceGatesSamples) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  TimeSeriesSampler s;
  s.configure(&reg, Time::us(10));
  s.maybe_sample(Time::zero());  // taken: first sample is always due
  c.inc();
  s.maybe_sample(Time::us(3));  // skipped: next due at 10 us
  c.inc();
  s.maybe_sample(Time::us(12));  // taken
  s.maybe_sample(Time::us(15));  // skipped: next due at 22 us
  s.maybe_sample(Time::us(25));  // taken
  ASSERT_EQ(s.rows().size(), 3u);
  EXPECT_EQ(s.rows()[0].at, Time::zero());
  EXPECT_EQ(s.rows()[1].at, Time::us(12));
  EXPECT_EQ(s.rows()[2].at, Time::us(25));
  EXPECT_DOUBLE_EQ(s.rows()[0].values[0], 0.0);
  EXPECT_DOUBLE_EQ(s.rows()[1].values[0], 2.0);
}

TEST(TimeSeriesSampler, DisabledSamplerIsInert) {
  TimeSeriesSampler s;
  EXPECT_FALSE(s.enabled());
  s.maybe_sample(Time::us(5));
  s.sample(Time::us(5));
  EXPECT_TRUE(s.rows().empty());
}

TEST(TimeSeriesSampler, WritesJsonlAndCsv) {
  MetricsRegistry reg;
  reg.counter("cells").inc(42);
  reg.gauge("depth").set(1.5);
  TimeSeriesSampler s;
  s.configure(&reg, Time::us(1));
  s.sample(Time::us(2));

  const std::string jsonl = "telemetry_test_rows.jsonl";
  const std::string csv = "telemetry_test_rows.csv";
  ASSERT_TRUE(s.write_jsonl(jsonl));
  ASSERT_TRUE(s.write_csv(csv));
  EXPECT_NE(slurp(jsonl).find("\"cells\": 42"), std::string::npos);
  const std::string c = slurp(csv);
  EXPECT_NE(c.find("t_us,cells,depth"), std::string::npos);
  EXPECT_NE(c.find("2,42,1.5"), std::string::npos);
  std::remove(jsonl.c_str());
  std::remove(csv.c_str());
}

TEST(BinnedSeries, AccumulatesIntoFixedBins) {
  BinnedSeries s(Time::us(2));
  s.add(Time::us(1), 3.0);   // bin 0
  s.add(Time::us(3), 4.0);   // bin 1
  s.add(Time::us(3), 1.0);   // bin 1
  s.add(Time::us(9), 2.0);   // bin 4
  ASSERT_EQ(s.size(), 5u);
  EXPECT_DOUBLE_EQ(s.bins()[0], 3.0);
  EXPECT_DOUBLE_EQ(s.bins()[1], 5.0);
  EXPECT_DOUBLE_EQ(s.bins()[4], 2.0);
  EXPECT_EQ(s.bin_start(4), Time::us(8));
}

TEST(StripChart, GlyphsScaleAndMark) {
  // baseline 1.0: full, 0.8 -> '+', 0.6 -> '-', 0.3 -> '.', 0.1 -> ' '.
  const std::vector<double> bins = {1.0, 0.8, 0.6, 0.3, 0.1, 1.0};
  const StripChart c = render_strip_chart(bins, 1.0, 2);
  EXPECT_EQ(c.cells, "#+X. #");
  EXPECT_EQ(c.stride, 1u);
  EXPECT_EQ(c.shown, 6u);
}

TEST(StripChart, TrimsDrainTail) {
  // Trailing bins below half baseline are the drain tail, not a dip.
  const std::vector<double> bins = {1.0, 1.0, 0.2, 0.1};
  const StripChart c = render_strip_chart(bins, 1.0, -1);
  EXPECT_EQ(c.cells, "##");
  EXPECT_EQ(c.shown, 2u);
}

TEST(CellTracer, SamplingKeepsEveryNthFlow) {
  CellTracer t;
  t.configure(/*flow_sample=*/4, /*max_events=*/100);
  EXPECT_TRUE(t.wants(FlowId{0}));
  EXPECT_FALSE(t.wants(FlowId{1}));
  EXPECT_TRUE(t.wants(FlowId{8}));
  // Protocol events (no flow) are dropped under sampling...
  EXPECT_FALSE(t.wants(FlowId{-1}));
  // ...but kept when every flow is traced.
  CellTracer all;
  all.configure(1, 100);
  EXPECT_TRUE(all.wants(FlowId{-1}));
}

TEST(CellTracer, EventCapCountsOverflow) {
  CellTracer t;
  t.configure(1, /*max_events=*/3);
  CellEventRecord r;
  r.node = 0;
  for (int i = 0; i < 5; ++i) {
    r.seq = i;
    t.record(r);
  }
  EXPECT_EQ(t.recorded(), 3);
  EXPECT_EQ(t.dropped(), 2);
}

TEST(CellTracer, WritesChromeTraceJson) {
  CellTracer t;
  t.configure(1, 100);
  CellEventRecord r;
  r.at = Time::us(7);
  r.node = 2;
  r.peer = 3;
  r.dst = 5;
  r.flow = FlowId{11};
  r.seq = 0;
  r.event = CellEvent::kFirstHopTx;
  t.record(r);
  const std::string path = "telemetry_test_trace.json";
  ASSERT_TRUE(t.write_chrome_json(path, 8));
  const std::string body = slurp(path);
  EXPECT_NE(body.find("\"displayTimeUnit\": \"ns\""), std::string::npos);
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("\"process_name\""), std::string::npos);
  EXPECT_NE(body.find("\"node 2\""), std::string::npos);
  EXPECT_NE(body.find("\"first_hop_tx\""), std::string::npos);
  EXPECT_NE(body.find("\"flow\": 11"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorder, RingKeepsLastNOldestFirst) {
  FlightRecorder fr;
  fr.configure(/*nodes=*/2, /*depth=*/4);
  CellEventRecord r;
  r.node = 0;
  r.event = CellEvent::kDeliver;
  for (int i = 0; i < 6; ++i) {
    r.seq = i;
    fr.record(r);
  }
  const std::string d = fr.dump();
  // 6 events through a depth-4 ring: seq 2..5 retained, 0 and 1 evicted.
  EXPECT_EQ(d.find("seq=0 "), std::string::npos);
  EXPECT_EQ(d.find("seq=1 "), std::string::npos);
  EXPECT_NE(d.find("seq=2 "), std::string::npos);
  EXPECT_NE(d.find("seq=5 "), std::string::npos);
  EXPECT_LT(d.find("seq=2 "), d.find("seq=5 "));
  EXPECT_NE(d.find("6 events total"), std::string::npos);
}

TEST(FlightRecorder, InvariantFailureTriggersDump) {
  TelemetryConfig tc;
  tc.flight_recorder_depth = 8;
  Hub hub(tc);
  hub.attach_nodes(4);

  CellEventRecord r;
  r.at = Time::us(3);
  r.node = 1;
  r.flow = FlowId{42};
  r.seq = 7;
  r.event = CellEvent::kRelayEnqueue;
  hub.on_cell_event(r);

  check::ScopedCollect collect;
  SIRIUS_INVARIANT(1 == 2, "telemetry test violation %d", 42);
  EXPECT_EQ(collect.violations(), 1);
  EXPECT_EQ(hub.recorder().dumps(), 1);
  const std::string& d = hub.recorder().last_dump();
  EXPECT_NE(d.find("relay_enqueue"), std::string::npos);
  EXPECT_NE(d.find("flow=42"), std::string::npos);
}

TEST(Profiler, AccumulatesWhenEnabled) {
  Profiler p;
  EXPECT_TRUE(p.table().empty());
  p.enable(true);
  p.enter(ProfScope::kTransmit);
  p.exit_scope(1'000);
  p.enter(ProfScope::kTransmit);
  p.exit_scope(3'000);
  EXPECT_EQ(p.stats(ProfScope::kTransmit).calls, 2u);
  EXPECT_EQ(p.stats(ProfScope::kTransmit).total_nanos, 4'000u);
  EXPECT_EQ(p.stats(ProfScope::kTransmit).max_nanos, 3'000u);
  EXPECT_NE(p.table().find("transmit"), std::string::npos);
}

TEST(Profiler, ScopedTimerSkipsClockWhenDisabled) {
  Profiler p;  // disabled
  {
    ScopedTimer t(p, ProfScope::kAudit);
  }
  EXPECT_EQ(p.stats(ProfScope::kAudit).calls, 0u);
  p.enable(true);
  {
    ScopedTimer t(p, ProfScope::kAudit);
  }
  EXPECT_EQ(p.stats(ProfScope::kAudit).calls, 1u);
}

TEST(Manifest, SectionsKeepInsertionOrder) {
  Manifest m;
  m.section("run").add("system", "sirius");
  m.section("config").add_int("racks", 8);
  m.section("run").add_num("load", 0.5);  // appends to the existing section
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"schema\": \"sirius.run.v1\""), std::string::npos);
  EXPECT_LT(json.find("\"run\""), json.find("\"config\""));
  EXPECT_NE(json.find("\"load\": 0.5"), std::string::npos);

  const std::string path = "telemetry_test_manifest.json";
  ASSERT_TRUE(m.write(path));
  EXPECT_EQ(slurp(path), json);
  std::remove(path.c_str());
}

TEST(Manifest, BuildInfoReflectsCompileFlags) {
  const std::string b = Manifest::build_info_json();
  EXPECT_NE(b.find("\"compiler\""), std::string::npos);
  EXPECT_NE(b.find("\"cxx_standard\""), std::string::npos);
  EXPECT_NE(b.find("\"ndebug\""), std::string::npos);
}

TEST(Hub, DisabledHubHasNoSinks) {
  Hub hub;
  EXPECT_FALSE(hub.tracing());
  EXPECT_FALSE(hub.metrics_enabled());
  EXPECT_TRUE(hub.finish().empty());
  // Counters still count — producers bind unconditionally.
  hub.metrics().counter("c").inc(3);
  EXPECT_EQ(hub.metrics().find_counter("c")->value(), 3);
}

// The acceptance contract: an instrumented run (metrics + trace + flight
// recorder + profiler all live) must produce bit-identical simulation
// results to an uninstrumented one, including through a mid-run fault.
TEST(Determinism, TelemetryDoesNotPerturbSimulation) {
  core::ExperimentConfig cfg;
  cfg.racks = 8;
  cfg.servers_per_rack = 2;
  cfg.flows = 300;
  const workload::Workload w = core::make_workload(cfg, 0.5);

  const auto configure = [&] {
    sim::SiriusSimConfig s =
        core::make_sirius_config(cfg, core::SiriusVariant{});
    s.faults.fail_rack(1, Time::us(20), Time::us(120));
    s.record_recovery_curve = true;
    return s;
  };

  // Run A: no telemetry attached (the sim owns a disabled hub).
  sim::SiriusSimConfig sa = configure();
  sim::SiriusSim sim_a(sa, w);
  const sim::SiriusSimResult a = sim_a.run();

  // Run B: everything on, writing real artifacts.
  TelemetryConfig tc;
  tc.metrics_out = "telemetry_test_det.jsonl";
  tc.metrics_every = Time::us(5);
  tc.trace_out = "telemetry_test_det_trace.json";
  tc.flight_recorder_depth = 32;
  tc.profile = true;
  Hub hub(tc);
  sim::SiriusSimConfig sb = configure();
  sb.telemetry = &hub;
  sim::SiriusSim sim_b(sb, w);
  const sim::SiriusSimResult b = sim_b.run();
  for (const Hub::Artifact& art : hub.finish()) {
    EXPECT_TRUE(art.ok) << art.kind << " " << art.path;
    std::remove(art.path.c_str());
  }

  EXPECT_EQ(a.cells_delivered, b.cells_delivered);
  EXPECT_EQ(a.slots_simulated, b.slots_simulated);
  EXPECT_EQ(a.incomplete_flows, b.incomplete_flows);
  EXPECT_EQ(a.rejected_flows, b.rejected_flows);
  EXPECT_EQ(a.sim_end, b.sim_end);
  EXPECT_EQ(a.goodput_normalized, b.goodput_normalized);  // bit-exact
  EXPECT_EQ(a.fct.short_fct_p99_ms, b.fct.short_fct_p99_ms);
  EXPECT_EQ(a.worst_node_queue_peak_kb, b.worst_node_queue_peak_kb);
  EXPECT_EQ(a.worst_reorder_peak_kb, b.worst_reorder_peak_kb);
  ASSERT_EQ(a.per_flow_completion.size(), b.per_flow_completion.size());
  for (std::size_t i = 0; i < a.per_flow_completion.size(); ++i) {
    EXPECT_EQ(a.per_flow_completion[i], b.per_flow_completion[i]) << i;
  }
  EXPECT_EQ(a.failover.cells_dropped, b.failover.cells_dropped);
  EXPECT_EQ(a.failover.cells_retransmitted, b.failover.cells_retransmitted);
  EXPECT_EQ(a.failover.schedule_swaps, b.failover.schedule_swaps);
  EXPECT_EQ(a.failover.detection_rounds, b.failover.detection_rounds);
  ASSERT_EQ(a.recovery_curve.size(), b.recovery_curve.size());
  for (std::size_t i = 0; i < a.recovery_curve.size(); ++i) {
    EXPECT_EQ(a.recovery_curve[i].goodput_normalized,
              b.recovery_curve[i].goodput_normalized)
        << i;
  }

  // The instrumented run actually recorded things (the comparison above
  // would be vacuous against an inert hub).
  EXPECT_GT(hub.metrics().find_counter("sim.cells_delivered")->value(), 0);
  EXPECT_GT(hub.tracer().recorded(), 0);
  EXPECT_GT(hub.profiler().stats(ProfScope::kSlotLoop).calls, 0u);
}

}  // namespace
}  // namespace sirius::telemetry
