// Tests for the §4.5 fault-tolerance machinery: member schedules, relay
// exclusion in congestion control, end-to-end behaviour with failed racks,
// and the mid-run fault path — in-band detection, schedule swap, loss
// recovery, and rejoin.
#include <gtest/gtest.h>

#include <set>

#include "cc/request_grant.hpp"
#include "common/invariant.hpp"
#include "sched/schedule.hpp"
#include "sim/sirius_sim.hpp"
#include "workload/generator.hpp"

namespace sirius {
namespace {

TEST(MemberSchedule, SkipsNonMembers) {
  // Nodes {0,1,3,4,6} of a 7-node network (2 and 5 failed).
  sched::CyclicSchedule s({0, 1, 3, 4, 6}, /*uplinks=*/2);
  EXPECT_EQ(s.nodes(), 5);
  EXPECT_TRUE(s.is_member(3));
  EXPECT_FALSE(s.is_member(2));
  EXPECT_FALSE(s.is_member(5));
  // Failed nodes get no transmission slots.
  for (std::int64_t t = 0; t < 8; ++t) {
    for (UplinkId u = 0; u < 2; ++u) {
      EXPECT_EQ(s.peer_tx(2, u, t), kInvalidNode);
      EXPECT_EQ(s.peer_tx(5, u, t), kInvalidNode);
    }
  }
}

TEST(MemberSchedule, EachAlivePairOncePerRound) {
  const std::vector<NodeId> members = {0, 2, 3, 5, 7, 8, 9, 11};
  sched::CyclicSchedule s(members, 3);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (std::int64_t t = 0; t < s.slots_per_round(); ++t) {
    for (const NodeId src : members) {
      for (UplinkId u = 0; u < 3; ++u) {
        const NodeId dst = s.peer_tx(src, u, t);
        if (dst == kInvalidNode) continue;
        EXPECT_NE(dst, src);
        EXPECT_TRUE(s.is_member(dst));
        EXPECT_TRUE(seen.insert({src, dst}).second);
      }
    }
  }
  EXPECT_EQ(seen.size(), members.size() * (members.size() - 1));
}

TEST(MemberSchedule, RxInvertsTxOnAliveSet) {
  const std::vector<NodeId> members = {1, 2, 4, 5, 6, 9};
  sched::CyclicSchedule s(members, 2);
  for (std::int64_t t = 0; t < s.slots_per_round() * 2; ++t) {
    for (const NodeId src : members) {
      for (UplinkId u = 0; u < 2; ++u) {
        const NodeId dst = s.peer_tx(src, u, t);
        if (dst == kInvalidNode) continue;
        EXPECT_EQ(s.peer_rx(dst, u, t), src);
      }
    }
  }
}

TEST(MemberSchedule, FullMembershipMatchesPlainSchedule) {
  sched::CyclicSchedule plain(12, 3);
  std::vector<NodeId> all;
  for (NodeId n = 0; n < 12; ++n) all.push_back(n);
  sched::CyclicSchedule membered(all, 3);
  for (std::int64_t t = 0; t < plain.slots_per_round(); ++t) {
    for (NodeId n = 0; n < 12; ++n) {
      for (UplinkId u = 0; u < 3; ++u) {
        EXPECT_EQ(plain.peer_tx(n, u, t), membered.peer_tx(n, u, t));
      }
    }
  }
}

TEST(CcExclusion, FailedRelayNeverRequested) {
  cc::RequestGrantNode n(0, cc::RequestGrantConfig{16, 4});
  n.exclude(7);
  n.exclude(9);
  Rng rng(1);
  // Many epochs, many cells: neither excluded node may appear.
  for (std::int64_t e = 0; e < 500; ++e) {
    std::vector<NodeId> pending(20, static_cast<NodeId>(1 + e % 15));
    std::vector<cc::RequestGrantNode::OutgoingRequest> reqs;
    n.build_requests(
        pending, e, rng, [](NodeId) { return true; },
        [](NodeId, NodeId) { return true; }, &reqs);
    for (const auto& req : reqs) {
      EXPECT_NE(req.intermediate, 7);
      EXPECT_NE(req.intermediate, 9);
    }
  }
  EXPECT_TRUE(n.is_excluded(7));
  EXPECT_FALSE(n.is_excluded(8));
}

TEST(CcExclusion, AllExcludedYieldsNoRequests) {
  cc::RequestGrantNode n(0, cc::RequestGrantConfig{3, 4});
  n.exclude(1);
  n.exclude(2);
  Rng rng(2);
  std::vector<cc::RequestGrantNode::OutgoingRequest> reqs;
  n.build_requests(
      {1, 2}, 0, rng, [](NodeId) { return true; },
      [](NodeId, NodeId) { return true; }, &reqs);
  EXPECT_TRUE(reqs.empty());
}

sim::SiriusSimConfig failed_net(std::vector<NodeId> failed) {
  sim::SiriusSimConfig cfg;
  cfg.racks = 16;
  cfg.servers_per_rack = 4;
  cfg.base_uplinks = 4;
  cfg.seed = 9;
  for (const NodeId r : failed) cfg.faults.fail_rack(r, Time::zero());
  return cfg;
}

workload::Workload failed_wl(const sim::SiriusSimConfig& cfg, double load,
                             std::int64_t flows) {
  workload::GeneratorConfig g;
  g.servers = cfg.servers();
  g.server_rate = cfg.server_share();
  g.load = load;
  g.flow_count = flows;
  g.max_flow_size = DataSize::megabytes(2);
  g.seed = 33;
  return workload::generate(g);
}

TEST(FailoverSim, SurvivesFailedRacksEndToEnd) {
  const auto cfg = failed_net({3, 11});
  const auto w = failed_wl(cfg, 0.4, 2'000);
  sim::SiriusSim sim(cfg, w);
  const auto r = sim.run();
  // Flows between alive racks all complete; flows touching the failed
  // racks are rejected, roughly 2/16ths of endpoints twice over.
  EXPECT_EQ(r.incomplete_flows, 0);
  EXPECT_GT(r.rejected_flows, 2'000 / 16);
  EXPECT_LT(r.rejected_flows, 2'000 / 2);
  EXPECT_EQ(r.fct.completed_flows + r.rejected_flows, 2'000);
}

TEST(FailoverSim, BandwidthDegradesGracefully) {
  // At saturation, k failed racks cost roughly their share of capacity —
  // not a collapse. Compare delivered goodput among flows between alive
  // racks only (the workload includes rejected flows for both).
  const auto healthy_cfg = failed_net({});
  const auto broken_cfg = failed_net({0, 4, 8, 12});  // 4 of 16 racks
  const auto w = failed_wl(healthy_cfg, 1.5, 4'000);
  const auto healthy = sim::SiriusSim(healthy_cfg, w).run();
  const auto broken = sim::SiriusSim(broken_cfg, w).run();
  EXPECT_EQ(broken.incomplete_flows, 0);
  // 25% of racks gone removes ~44% of rack pairs; goodput (normalised by
  // the FULL fleet) must drop, but the alive portion keeps flowing.
  EXPECT_LT(broken.goodput_normalized, healthy.goodput_normalized);
  EXPECT_GT(broken.goodput_normalized, healthy.goodput_normalized * 0.3);
}

TEST(FailoverSim, NoTrafficThroughFailedRelay) {
  // With rack 5 failed, no cell may ever land at node 5 — neither as a
  // relay nor as a destination. We verify indirectly: all completed flows
  // completed, nothing incomplete (a blackholed relay would strand cells).
  const auto cfg = failed_net({5});
  const auto w = failed_wl(cfg, 0.6, 2'000);
  const auto r = sim::SiriusSim(cfg, w).run();
  EXPECT_EQ(r.incomplete_flows, 0);
}

// ---- mid-run faults: in-band detection and recovery ------------------------

sim::SiriusSimConfig faulted_net() {
  sim::SiriusSimConfig cfg;
  cfg.racks = 8;
  cfg.servers_per_rack = 4;
  cfg.base_uplinks = 4;
  cfg.seed = 7;
  cfg.record_recovery_curve = true;
  return cfg;
}

TEST(MidRunFault, HardFailureDetectedSwappedAndRecovered) {
  // Rack 3 fail-stops at 60 us under 50% load. The fabric must notice the
  // silence within miss_threshold rounds, agree within one more round,
  // swap the schedule over the alive set, retransmit what was lost, and
  // return to the pre-fault goodput. The run's own invariant auditors
  // (cell conservation with explicit drops, queue bounds, permutation)
  // execute throughout — any ledger leak aborts the test binary.
  auto cfg = faulted_net();
  cfg.faults.fail_rack(3, Time::us(60));
  const auto w = failed_wl(cfg, 0.5, 800);
  const auto r = sim::SiriusSim(cfg, w).run();
  const auto& fo = r.failover;

  ASSERT_GE(fo.detection_rounds, 1);
  EXPECT_LE(fo.detection_rounds, sim::kMissThreshold);
  ASSERT_GE(fo.dissemination_rounds, fo.detection_rounds);
  EXPECT_LE(fo.dissemination_rounds, fo.detection_rounds + 1);
  EXPECT_EQ(fo.schedule_swaps, 1);

  // Losses happened and were recovered: drops are explicit, every cell
  // not bound for the dead rack was retransmitted, and no surviving flow
  // is stranded.
  EXPECT_GT(fo.cells_dropped, 0);
  EXPECT_GT(fo.cells_retransmitted, 0);
  EXPECT_EQ(fo.retx_abandoned, 0);
  EXPECT_GT(fo.flows_aborted, 0);  // flows ending at the dead rack
  EXPECT_EQ(r.incomplete_flows, 0);

  // Goodput transient: back to >= 95% of the pre-fault baseline.
  EXPECT_FALSE(r.recovery_curve.empty());
  EXPECT_GT(fo.recovery.baseline, 0.0);
  EXPECT_TRUE(fo.recovery.recovered);
  EXPECT_FALSE(fo.recovery.time_to_recover.is_infinite());
}

TEST(MidRunFault, GreyLinkDetectedByVictimWithoutConviction) {
  // One directed link blacks out for a bounded window. Only the victim
  // observer sees the silence; with a quorum of two no healthy rack may
  // be evicted, so the schedule stays put while retransmissions repair
  // the losses — and the verdict clears once the window passes.
  auto cfg = faulted_net();
  cfg.faults.grey_link(2, 5, 1.0, Time::us(40), Time::us(120));
  const auto w = failed_wl(cfg, 0.5, 800);
  const auto r = sim::SiriusSim(cfg, w).run();
  const auto& fo = r.failover;

  // Detected in-band at the same consecutive-miss threshold a hard
  // failure would be (loss 1.0 misses every burst).
  ASSERT_GE(fo.detection_rounds, 1);
  EXPECT_LE(fo.detection_rounds, sim::kMissThreshold);

  // ... but never convicted: one observer is below the quorum.
  EXPECT_EQ(fo.schedule_swaps, 0);
  EXPECT_EQ(fo.flows_aborted, 0);
  EXPECT_EQ(fo.dissemination_rounds, -1);

  // Every burst lost on the grey link was recovered by retransmission.
  EXPECT_GT(fo.cells_retransmitted, 0);
  EXPECT_EQ(fo.retx_abandoned, 0);
  EXPECT_EQ(r.incomplete_flows, 0);
  EXPECT_TRUE(fo.recovery.recovered);
}

TEST(MidRunFault, QuorumOfGreyLinksVotesOutLiveRack) {
  // Two observers lose every burst from rack 2 for the whole window: that
  // meets the 8-rack quorum of two, so the live rack is convicted and
  // swapped out. A false conviction has a crashed rack's blast radius —
  // its queues are purged and every flow touching it is aborted — and
  // the rest of the fabric still drains, with clean auditors throughout.
  auto cfg = faulted_net();
  cfg.faults.grey_link(2, 5, 1.0, Time::us(40), Time::us(120));
  cfg.faults.grey_link(2, 6, 1.0, Time::us(40), Time::us(120));
  const auto w = failed_wl(cfg, 0.5, 800);
  check::ScopedCollect collect;
  sim::SiriusSim sim(cfg, w);
  const auto r = sim.run();
  const auto& fo = r.failover;

  ASSERT_GE(fo.detection_rounds, 1);
  EXPECT_EQ(fo.schedule_swaps, 1);
  EXPECT_FALSE(sim.schedule().is_member(2));
  EXPECT_GT(fo.flows_aborted, 0);
  EXPECT_GT(fo.cells_dropped, 0);
  EXPECT_EQ(r.incomplete_flows, 0);
  EXPECT_EQ(collect.violations(), 0);
}

TEST(MidRunFault, GreyDetectionLatencyGrowsAsLossFalls) {
  // Same shape as ctrl_test's FailureDetector.GreyFailureEventuallyCaught,
  // but in the packet-level sim: the consecutive-miss detector needs a
  // geometric-tail run of losses, so a half-dead link trips the threshold
  // within a few rounds while a 10%-lossy one takes far longer — and both
  // are caught by the victim's PeerHealth alone, no oracle input.
  const auto detect_rounds = [](double loss) {
    auto cfg = faulted_net();
    cfg.faults.grey_link(2, 5, loss, Time::us(30));
    const auto w = failed_wl(cfg, 0.5, 800);
    return sim::SiriusSim(cfg, w).run().failover.detection_rounds;
  };
  const auto heavy = detect_rounds(0.5);
  const auto light = detect_rounds(0.10);
  ASSERT_GE(heavy, sim::kMissThreshold);  // can't be faster than k
  EXPECT_LT(heavy, 100);
  // -1 (never detected before the run drains) also satisfies the shape;
  // with this seed the run is long enough to catch it.
  ASSERT_GT(light, 0);
  EXPECT_GT(light, heavy);
}

TEST(MidRunFault, RecoveredRackRejoinsTheSchedule) {
  // The failed rack comes back 120 us later: the control plane
  // re-provisions it (§4.5 leaves rejoin to provisioning), giving a
  // second schedule swap, and traffic keeps flowing to the end.
  auto cfg = faulted_net();
  cfg.faults.fail_rack(3, Time::us(60), Time::us(180));
  const auto w = failed_wl(cfg, 0.5, 800);
  const auto r = sim::SiriusSim(cfg, w).run();
  EXPECT_EQ(r.failover.schedule_swaps, 2);
  EXPECT_EQ(r.incomplete_flows, 0);
  EXPECT_EQ(r.failover.retx_abandoned, 0);
}

TEST(MidRunFault, RunsAreBitIdenticalForSameSeedAndPlan) {
  // (config, seed, plan) fully determines the experiment — including the
  // Bernoulli draws of the grey link, which use their own RNG stream.
  auto cfg = faulted_net();
  cfg.faults.fail_rack(1, Time::us(60), Time::us(200));
  cfg.faults.grey_link(2, 5, 0.5, Time::us(30), Time::us(90));
  const auto w = failed_wl(cfg, 0.5, 600);
  const auto a = sim::SiriusSim(cfg, w).run();
  const auto b = sim::SiriusSim(cfg, w).run();

  EXPECT_EQ(a.cells_delivered, b.cells_delivered);
  EXPECT_EQ(a.slots_simulated, b.slots_simulated);
  EXPECT_EQ(a.goodput_normalized, b.goodput_normalized);  // bit-identical
  EXPECT_EQ(a.fct.short_fct_p99_ms, b.fct.short_fct_p99_ms);
  EXPECT_EQ(a.failover.cells_dropped, b.failover.cells_dropped);
  EXPECT_EQ(a.failover.cells_retransmitted, b.failover.cells_retransmitted);
  EXPECT_EQ(a.failover.duplicates_discarded, b.failover.duplicates_discarded);
  EXPECT_EQ(a.failover.detection_rounds, b.failover.detection_rounds);
  EXPECT_EQ(a.failover.schedule_swaps, b.failover.schedule_swaps);
  ASSERT_EQ(a.recovery_curve.size(), b.recovery_curve.size());
  for (std::size_t i = 0; i < a.recovery_curve.size(); ++i) {
    EXPECT_EQ(a.recovery_curve[i].goodput_normalized,
              b.recovery_curve[i].goodput_normalized);
  }
  ASSERT_EQ(a.per_flow_completion.size(), b.per_flow_completion.size());
  for (std::size_t i = 0; i < a.per_flow_completion.size(); ++i) {
    EXPECT_EQ(a.per_flow_completion[i], b.per_flow_completion[i]);
  }
}

TEST(MidRunFault, EmptyPlanIsBitIdenticalToBaseline) {
  // The failover machinery must be invisible when no fault is dynamic:
  // a run with an empty plan reproduces the plain run bit for bit (the
  // fault RNG is a separate stream precisely so this holds).
  const auto cfg = faulted_net();
  const auto w = failed_wl(cfg, 0.5, 600);
  auto plain_cfg = cfg;
  plain_cfg.record_recovery_curve = false;
  const auto plain = sim::SiriusSim(plain_cfg, w).run();
  const auto faultless = sim::SiriusSim(cfg, w).run();
  EXPECT_EQ(plain.cells_delivered, faultless.cells_delivered);
  EXPECT_EQ(plain.goodput_normalized, faultless.goodput_normalized);
  EXPECT_EQ(plain.fct.short_fct_p99_ms, faultless.fct.short_fct_p99_ms);
  EXPECT_EQ(faultless.failover.cells_dropped, 0);
  EXPECT_EQ(faultless.failover.cells_retransmitted, 0);
}

#if defined(SIRIUS_AUDIT)
TEST(CcExclusion, OutOfRangeIdsAreAuditedAndIgnored) {
  // Exclusion bookkeeping is bounds-checked: an out-of-range id trips the
  // invariant (collected here instead of aborting) and is ignored on the
  // defensive path instead of corrupting neighbouring state.
  cc::RequestGrantNode n(0, cc::RequestGrantConfig{8, 4});
  check::ScopedCollect collect;
  n.exclude(99);
  n.exclude(-1);
  n.include(99);
  EXPECT_FALSE(n.is_excluded(99));
  EXPECT_EQ(collect.violations(), 4);  // 3 calls + the is_excluded probe
  for (NodeId i = 0; i < 8; ++i) EXPECT_FALSE(n.is_excluded(i));
}
#endif

}  // namespace
}  // namespace sirius
