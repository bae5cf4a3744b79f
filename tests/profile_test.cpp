// Tests for the hierarchical profiler (src/telemetry/profile.*): nested
// self/total attribution, path-sensitive tree nodes, the flame-style JSON
// export, and the determinism contract — a run with the profiler live and a
// flame export configured must be bit-identical to a bare run.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/sirius_sim.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/profile.hpp"
#include "workload/generator.hpp"

namespace sirius::telemetry {
namespace {

constexpr auto kLoop = ProfScope::kSlotLoop;
constexpr auto kTx = ProfScope::kTransmit;
constexpr auto kDel = ProfScope::kDeliver;
constexpr auto kLand = ProfScope::kLandInject;

/// The tree node for `scope` under `parent_index`, or nullptr.
const Profiler::TreeNode* child_of(const Profiler& p, std::int32_t parent,
                                   ProfScope scope) {
  const auto& t = p.tree();
  for (std::int32_t i = t[static_cast<std::size_t>(parent)].first_child;
       i >= 0; i = t[static_cast<std::size_t>(i)].next_sibling) {
    if (t[static_cast<std::size_t>(i)].scope == scope) {
      return &t[static_cast<std::size_t>(i)];
    }
  }
  return nullptr;
}

TEST(Profiler, NestedScopesSplitSelfAndTotal) {
  Profiler p;
  p.enable(true);
  // slot-loop { transmit(30) transmit(20) } with 50 ns of own work.
  p.enter(kLoop);
  p.enter(kTx);
  p.exit_scope(30);
  p.enter(kTx);
  p.exit_scope(20);
  p.exit_scope(100);

  const auto* loop = child_of(p, 0, kLoop);
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->calls, 1u);
  EXPECT_EQ(loop->total_nanos, 100u);
  EXPECT_EQ(loop->child_nanos, 50u);
  EXPECT_EQ(loop->self_nanos(), 50u);

  const std::int32_t loop_idx =
      static_cast<std::int32_t>(loop - p.tree().data());
  const auto* tx = child_of(p, loop_idx, kTx);
  ASSERT_NE(tx, nullptr);
  EXPECT_EQ(tx->calls, 2u);
  EXPECT_EQ(tx->total_nanos, 50u);
  EXPECT_EQ(tx->self_nanos(), 50u);
  EXPECT_EQ(tx->max_nanos, 30u);

  // The flat table still aggregates path-insensitively.
  EXPECT_EQ(p.stats(kTx).calls, 2u);
  EXPECT_EQ(p.stats(kTx).total_nanos, 50u);
  EXPECT_EQ(p.stats(kLoop).total_nanos, 100u);
}

TEST(Profiler, SameScopeUnderDifferentParentsGetsDistinctNodes) {
  Profiler p;
  p.enable(true);
  p.enter(kTx);
  p.enter(kDel);
  p.exit_scope(7);
  p.exit_scope(10);
  p.enter(kLand);
  p.enter(kDel);
  p.exit_scope(5);
  p.exit_scope(8);

  const auto* tx = child_of(p, 0, kTx);
  const auto* land = child_of(p, 0, kLand);
  ASSERT_NE(tx, nullptr);
  ASSERT_NE(land, nullptr);
  const auto* del_under_tx = child_of(
      p, static_cast<std::int32_t>(tx - p.tree().data()), kDel);
  const auto* del_under_land = child_of(
      p, static_cast<std::int32_t>(land - p.tree().data()), kDel);
  ASSERT_NE(del_under_tx, nullptr);
  ASSERT_NE(del_under_land, nullptr);
  EXPECT_NE(del_under_tx, del_under_land);
  EXPECT_EQ(del_under_tx->total_nanos, 7u);
  EXPECT_EQ(del_under_land->total_nanos, 5u);
  // Flat view merges the two paths.
  EXPECT_EQ(p.stats(kDel).calls, 2u);
  EXPECT_EQ(p.stats(kDel).total_nanos, 12u);
}

TEST(Profiler, SelfTimeNeverUnderflows) {
  Profiler p;
  p.enable(true);
  // Child reports more time than the parent (clock granularity can do
  // this for near-zero scopes): self clamps at zero instead of wrapping.
  p.enter(kLoop);
  p.enter(kTx);
  p.exit_scope(100);
  p.exit_scope(50);
  const auto* loop = child_of(p, 0, kLoop);
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->self_nanos(), 0u);
}

TEST(Profiler, SpuriousExitIsIgnored) {
  Profiler p;
  p.enable(true);
  p.exit_scope(123);  // no open scope: must not crash or account anything
  p.enter(kTx);
  p.exit_scope(5);
  p.exit_scope(99);  // tree is back at the root: ignored too
  EXPECT_EQ(p.stats(kTx).total_nanos, 5u);
  const auto* tx = child_of(p, 0, kTx);
  ASSERT_NE(tx, nullptr);
  EXPECT_EQ(tx->total_nanos, 5u);
}

TEST(Profiler, DisabledProfilerDoesNothing) {
  Profiler p;
  ASSERT_FALSE(p.enabled());
  p.enter(kLoop);
  p.exit_scope(100);
  EXPECT_TRUE(p.tree().empty());
  EXPECT_EQ(p.stats(kLoop).calls, 0u);
  { ScopedTimer t(p, kTx); }
  EXPECT_TRUE(p.tree().empty());
  EXPECT_TRUE(p.table().empty());
}

TEST(Profiler, FlameJsonExportsTheTree) {
  Profiler p;
  p.enable(true);
  p.enter(kLoop);
  p.enter(kTx);
  p.exit_scope(30);
  p.exit_scope(100);
  const std::string flame = p.flame_json();
  EXPECT_NE(flame.find("\"name\": \"root\""), std::string::npos);
  EXPECT_NE(flame.find("\"name\": \"slot-loop\""), std::string::npos);
  EXPECT_NE(flame.find("\"name\": \"transmit\""), std::string::npos);
  // Root covers its children: the only top-level scope contributed 100.
  EXPECT_NE(flame.find("\"total_ns\": 100"), std::string::npos);
  EXPECT_NE(flame.find("\"self_ns\": 70"), std::string::npos);
}

// The determinism contract, end to end: a simulation with the profiler
// live and a flame export configured must produce bit-identical results to
// a bare run of the same config and workload.
TEST(PerfObservability, InstrumentedRunIsBitIdentical) {
  sim::SiriusSimConfig cfg;
  cfg.racks = 8;
  cfg.servers_per_rack = 2;
  workload::GeneratorConfig g;
  g.servers = cfg.servers();
  g.server_rate = cfg.server_share();
  g.load = 0.4;
  g.flow_count = 300;
  const auto w = workload::generate(g);

  sim::SiriusSimResult bare = sim::SiriusSim(cfg, w).run();

  const auto flame_path =
      std::filesystem::temp_directory_path() / "sirius_profile_test_flame.json";
  TelemetryConfig tcfg;
  tcfg.profile = true;
  tcfg.flame_out = flame_path.string();
  Hub hub(tcfg);
  auto icfg = cfg;
  icfg.telemetry = &hub;
  sim::SiriusSimResult inst = sim::SiriusSim(icfg, w).run();
  const auto artifacts = hub.finish();

  EXPECT_EQ(inst.slots_simulated, bare.slots_simulated);
  EXPECT_EQ(inst.cells_delivered, bare.cells_delivered);
  EXPECT_EQ(inst.incomplete_flows, bare.incomplete_flows);
  EXPECT_EQ(inst.requests_sent, bare.requests_sent);
  EXPECT_EQ(inst.grants_issued, bare.grants_issued);
  ASSERT_EQ(inst.per_flow_completion.size(), bare.per_flow_completion.size());
  for (std::size_t i = 0; i < bare.per_flow_completion.size(); ++i) {
    EXPECT_EQ(inst.per_flow_completion[i].picoseconds(),
              bare.per_flow_completion[i].picoseconds())
        << "flow " << i;
  }

  // The flame artifact was written.
  bool flame_written = false;
  for (const auto& a : artifacts) {
    if (a.kind == "flame") flame_written = a.ok;
  }
  EXPECT_TRUE(flame_written);
#if defined(SIRIUS_TELEMETRY)
  // With the scope macros compiled in, the export carries the hot loop.
  std::ifstream in(flame_path);
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("slot-loop"), std::string::npos);
#endif
  std::error_code ec;
  std::filesystem::remove(flame_path, ec);
}

}  // namespace
}  // namespace sirius::telemetry
