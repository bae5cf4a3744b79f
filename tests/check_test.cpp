// Tests for the invariant auditing subsystem (check/): each domain auditor
// must report the violations it exists to catch, and a healthy simulation
// must audit clean. Deliberate violations run under ScopedCollect so the
// failed invariants are tallied instead of aborting the test binary.
#include <gtest/gtest.h>

#include "check/auditors.hpp"
#include "common/invariant.hpp"
#include "node/node.hpp"
#include "node/node_audit.hpp"
#include "node/reorder_buffer.hpp"
#include "sched/schedule.hpp"
#include "sched/schedule_audit.hpp"
#include "sim/event_queue.hpp"
#include "sim/sirius_sim.hpp"
#include "workload/generator.hpp"

namespace sirius::check {
namespace {

#if !defined(SIRIUS_AUDIT)
#error "check_test requires an audited build (SIRIUS_AUDIT)"
#endif

TEST(InvariantContext, CollectModeRecordsInsteadOfAborting) {
  ScopedCollect collect;
  SIRIUS_INVARIANT(1 + 1 == 3, "arithmetic broke: %d", 2);
  EXPECT_EQ(collect.violations(), 1);
  const auto reports = InvariantContext::instance().reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_NE(reports[0].message.find("arithmetic broke: 2"), std::string::npos);
  EXPECT_NE(InvariantContext::instance().report().find("1 + 1 == 3"),
            std::string::npos);
}

TEST(InvariantContext, ScopedCollectRestoresAndClears) {
  {
    ScopedCollect collect;
    SIRIUS_INVARIANT(false, "%s", "scoped");
    EXPECT_EQ(collect.violations(), 1);
  }
  EXPECT_EQ(InvariantContext::instance().mode(), InvariantMode::kAbort);
  EXPECT_EQ(InvariantContext::instance().violations(), 0);
}

TEST(InvariantContext, PassingConditionRecordsNothing) {
  ScopedCollect collect;
  SIRIUS_INVARIANT(true, "%s", "never printed");
  EXPECT_EQ(collect.violations(), 0);
}

TEST(Auditors, DuplicateDestinationInSlotIsReported) {
  ScopedCollect collect;
  std::vector<std::uint8_t> seen;
  audit_destination_permutation({0, 1, 2, 1}, "test", seen);
  EXPECT_EQ(collect.violations(), 1);
}

TEST(Auditors, PermutationWithIdleUplinksIsClean) {
  ScopedCollect collect;
  std::vector<std::uint8_t> seen;
  audit_destination_permutation({2, kInvalidNode, 0, 1, kInvalidNode}, "test",
                                seen);
  EXPECT_EQ(collect.violations(), 0);
}

TEST(Auditors, RealScheduleAuditsClean) {
  const sched::CyclicSchedule sched(16, 3);
  ScopedCollect collect;
  sched::PermutationScratch scratch;
  for (std::int64_t slot = 0; slot < 2 * sched.slots_per_round(); ++slot) {
    sched::audit_slot_permutation(sched, slot, scratch);
  }
  EXPECT_EQ(collect.violations(), 0);
}

TEST(Auditors, DegradedScheduleWithFailedMembersAuditsClean) {
  const sched::CyclicSchedule sched({0, 2, 3, 5, 6, 7, 9, 11}, 3);
  ScopedCollect collect;
  sched::PermutationScratch scratch;
  for (std::int64_t slot = 0; slot < sched.slots_per_round(); ++slot) {
    sched::audit_slot_permutation(sched, slot, scratch);
  }
  EXPECT_EQ(collect.violations(), 0);
}

TEST(Auditors, OverfullRelayQueueIsReported) {
  cc::RequestGrantConfig cc_cfg;
  cc_cfg.nodes = 8;
  cc_cfg.queue_limit = 2;
  node::Node n(0, cc_cfg, DataSize::bytes(512));
  // Stuff 5 relayed cells for destination 3 past the audited bound of 3.
  for (std::int32_t i = 0; i < 5; ++i) {
    node::Cell c;
    c.dst_node = 3;
    c.payload_bytes = 512;
    n.push_fq(3, c);
  }
  ScopedCollect collect;
  node::audit_queue_bound(n, cc_cfg.queue_limit, 3);
  EXPECT_EQ(collect.violations(), 1);
}

TEST(Auditors, QueueWithinBoundAuditsClean) {
  cc::RequestGrantConfig cc_cfg;
  cc_cfg.nodes = 8;
  cc_cfg.queue_limit = 4;
  node::Node n(0, cc_cfg, DataSize::bytes(512));
  node::Cell c;
  c.dst_node = 3;
  c.payload_bytes = 512;
  n.push_fq(3, c);
  ScopedCollect collect;
  node::audit_queue_bound(n, cc_cfg.queue_limit, 4);
  EXPECT_EQ(collect.violations(), 0);
}

TEST(Auditors, CellLedgerMismatchIsReported) {
  ScopedCollect collect;
  audit_cell_conservation(/*injected=*/10, /*delivered=*/5, /*queued=*/2,
                          /*in_flight=*/1, /*dropped=*/0);  // 10 != 8
  EXPECT_EQ(collect.violations(), 1);
  audit_cell_conservation(10, 5, 2, 3, 0);
  EXPECT_EQ(collect.violations(), 1);  // balanced ledger adds nothing
}

TEST(Auditors, OutOfOrderReleaseIsReported) {
  ScopedCollect collect;
  audit_in_order_release({0, 1, 3, 2, 4});
  EXPECT_EQ(collect.violations(), 1);
  audit_in_order_release({0, 1, 2, 3});
  EXPECT_EQ(collect.violations(), 1);
}

TEST(Auditors, ReorderBufferStateAuditsClean) {
  node::ReorderBuffer rb(4);
  std::vector<std::uint64_t> bits(node::ReorderBuffer::words_for(4));
  rb.on_arrival(bits, 2, 100);  // buffered out of order
  rb.on_arrival(bits, 0, 100);  // releases the prefix {0}
  ScopedCollect collect;
  node::audit_reorder(rb);
  EXPECT_EQ(collect.violations(), 0);
}

TEST(Auditors, ReorderBufferRejectsOutOfRangeSeq) {
  node::ReorderBuffer rb(4);
  std::vector<std::uint64_t> bits(node::ReorderBuffer::words_for(4));
  ScopedCollect collect;
  EXPECT_EQ(rb.on_arrival(bits, 7, 100), 0);   // beyond total_cells
  EXPECT_EQ(rb.on_arrival(bits, -1, 100), 0);  // negative
  EXPECT_EQ(collect.violations(), 2);
  EXPECT_EQ(rb.buffered_cells(), 0);
}

TEST(Auditors, DivergedClocksAreReported) {
  ScopedCollect collect;
  audit_clock_offsets({0.0, 3.0, 501.0}, /*bound_ps=*/100.0);
  EXPECT_EQ(collect.violations(), 1);
  audit_clock_offsets({12.0, 14.5, 9.0}, /*bound_ps=*/100.0);
  EXPECT_EQ(collect.violations(), 1);  // tight clocks add nothing
}

TEST(Auditors, EventQueuePastSchedulingIsReportedAndClamped) {
  sim::EventQueue q;
  int fired = 0;
  q.schedule_at(Time::ns(10), [&] { ++fired; });
  q.run_until();
  ASSERT_EQ(q.now(), Time::ns(10));
  ScopedCollect collect;
  q.schedule_at(Time::ns(5), [&] { ++fired; });  // in the past
  EXPECT_EQ(collect.violations(), 1);
  q.run_until();
  EXPECT_EQ(fired, 2);                // still ran, clamped to now()
  EXPECT_EQ(q.now(), Time::ns(10));   // time never moved backwards
}

TEST(Auditors, RegistryRunsEveryRegisteredAuditor) {
  AuditorRegistry reg;
  int calls = 0;
  reg.register_auditor("a", [&] { ++calls; });
  reg.register_auditor("b", [&] { ++calls; });
  EXPECT_EQ(reg.size(), 2u);
  reg.run_all();
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(reg.names(), (std::vector<std::string>{"a", "b"}));
}

TEST(Auditors, SiriusSimRunAuditsClean) {
  sim::SiriusSimConfig cfg;
  cfg.racks = 8;
  cfg.servers_per_rack = 2;
  cfg.base_uplinks = 4;
  cfg.seed = 5;
  cfg.audit_period_rounds = 1;  // audit every round for this test

  workload::GeneratorConfig g;
  g.servers = cfg.servers();
  g.server_rate = cfg.server_share();
  g.load = 0.5;
  g.flow_count = 60;
  g.mean_flow_size = DataSize::kilobytes(20);
  g.max_flow_size = DataSize::kilobytes(200);
  g.seed = 7;
  const auto w = workload::generate(g);

  sim::SiriusSim sim(cfg, w);
  EXPECT_GE(sim.auditors().size(), 3u);
  ScopedCollect collect;
  const auto r = sim.run();
  EXPECT_EQ(collect.violations(), 0);
  EXPECT_EQ(r.incomplete_flows, 0);
}

}  // namespace
}  // namespace sirius::check
