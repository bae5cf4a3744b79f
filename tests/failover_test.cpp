// Tests for the §4.5 fault-tolerance machinery: member schedules, relay
// exclusion in congestion control, end-to-end behaviour with failed racks,
// and the mid-run fault path — in-band detection, schedule swap, loss
// recovery, and rejoin.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <vector>

#include "cc/request_grant.hpp"
#include "ckpt/io.hpp"
#include "common/invariant.hpp"
#include "common/rng.hpp"
#include "ctrl/peer_health.hpp"
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

// ---- MembershipView against a per-entry reference ---------------------------

// The view as one {version, verdict} record per directed link, written out
// the plain way: the behaviour the version matrix and verdict bits of
// ctrl::MembershipView must reproduce, serialized bytes included.
class ReferenceView {
 public:
  ReferenceView(std::int32_t racks, NodeId owner, std::int32_t quorum)
      : racks_(racks),
        owner_(owner),
        quorum_(quorum),
        links_(static_cast<std::size_t>(racks * racks)),
        down_votes_(static_cast<std::size_t>(racks), 0),
        merged_rev_(static_cast<std::size_t>(racks), 0) {}

  void report_link(NodeId peer, bool down) {
    LinkState& cell = links_[idx(owner_, peer)];
    if ((cell.down != 0) == down) return;
    cell.down = down ? 1 : 0;
    ++cell.version;
    down_votes_[static_cast<std::size_t>(peer)] += down ? 1 : -1;
    ++revision_;
  }

  bool merge_from(const ReferenceView& other) {
    const auto from = static_cast<std::size_t>(other.owner_);
    if (merged_rev_[from] == other.revision_) return false;
    bool changed = false;
    for (NodeId obs = 0; obs < racks_; ++obs) {
      if (obs == owner_) continue;
      for (NodeId peer = 0; peer < racks_; ++peer) {
        const LinkState& theirs = other.links_[idx(obs, peer)];
        LinkState& ours = links_[idx(obs, peer)];
        if (theirs.version <= ours.version) continue;
        if (theirs.down != ours.down) {
          down_votes_[static_cast<std::size_t>(peer)] +=
              theirs.down != 0 ? 1 : -1;
        }
        ours = theirs;
        changed = true;
      }
    }
    merged_rev_[from] = other.revision_;
    if (changed) ++revision_;
    return changed;
  }

  [[nodiscard]] bool link_down(NodeId observer, NodeId peer) const {
    return links_[idx(observer, peer)].down != 0;
  }

  [[nodiscard]] bool node_down(NodeId node) const {
    std::int32_t votes = down_votes_[static_cast<std::size_t>(node)];
    if (links_[idx(node, node)].down != 0) --votes;
    return votes >= quorum_;
  }

  [[nodiscard]] std::vector<NodeId> down_set() const {
    std::vector<NodeId> out;
    for (NodeId n = 0; n < racks_; ++n) {
      if (node_down(n)) out.push_back(n);
    }
    return out;
  }

  void admit(NodeId node) {
    for (NodeId other = 0; other < racks_; ++other) {
      for (const std::size_t i : {idx(other, node), idx(node, other)}) {
        links_[i].down = 0;
        ++links_[i].version;
      }
    }
    std::fill(down_votes_.begin(), down_votes_.end(), 0);
    for (NodeId obs = 0; obs < racks_; ++obs) {
      for (NodeId peer = 0; peer < racks_; ++peer) {
        if (links_[idx(obs, peer)].down != 0) {
          ++down_votes_[static_cast<std::size_t>(peer)];
        }
      }
    }
    ++revision_;
  }

  [[nodiscard]] std::uint64_t revision() const { return revision_; }

  [[nodiscard]] std::string serialize() const {
    ckpt::Writer w;
    w.i32(racks_);
    w.i32(owner_);
    w.i32(quorum_);
    w.u64(revision_);
    w.u64(links_.size());
    for (const LinkState& cell : links_) {
      w.u32(cell.version);
      w.u8(cell.down);
    }
    w.vec_i32(down_votes_);
    w.vec_u64(merged_rev_);
    return std::string(w.data());
  }

 private:
  struct LinkState {
    std::uint32_t version = 0;
    std::uint8_t down = 0;
  };
  [[nodiscard]] std::size_t idx(NodeId observer, NodeId peer) const {
    return static_cast<std::size_t>(observer * racks_ + peer);
  }

  std::int32_t racks_;
  NodeId owner_;
  std::int32_t quorum_;
  std::uint64_t revision_ = 1;
  std::vector<LinkState> links_;
  std::vector<std::int32_t> down_votes_;
  std::vector<std::uint64_t> merged_rev_;
};

std::string serialized(const ctrl::MembershipView& v) {
  ckpt::Writer w;
  v.serialize(w);
  return std::string(w.data());
}

// A seeded random walk of reports, piggyback merges, admissions, fresh-view
// rejoins and checkpoint round trips over six views of a 12-rack fabric
// (144 links: the verdict bits span three words). After every step each
// view answers every query like the reference and serializes to the same
// bytes.
TEST(MembershipView, MatchesPerEntryReferenceOverRandomWalk) {
  constexpr std::int32_t kRacks = 12;
  constexpr std::int32_t kQuorum = 2;
  constexpr std::array<NodeId, 6> kOwners{0, 3, 5, 6, 9, 11};
  std::vector<ctrl::MembershipView> views;
  std::vector<ReferenceView> refs;
  for (const NodeId o : kOwners) {
    views.emplace_back(kRacks, o, kQuorum);
    refs.emplace_back(kRacks, o, kQuorum);
  }
  Rng rng(2027);
  std::int64_t rows_walked = 0;
  std::int64_t merges_changed = 0;
  for (int step = 0; step < 4000; ++step) {
    const auto a = static_cast<std::size_t>(rng.below(kOwners.size()));
    const std::uint64_t op = rng.below(100);
    std::string what;
    if (op < 40) {
      // Mostly "down" while few links are down, so verdicts pile up.
      const auto peer = static_cast<NodeId>(rng.below(kRacks));
      const bool down = rng.chance(0.6);
      views[a].report_link(peer, down);
      refs[a].report_link(peer, down);
      what = "report_link";
    } else if (op < 88) {
      auto b = static_cast<std::size_t>(rng.below(kOwners.size() - 1));
      if (b >= a) ++b;
      const std::int64_t before = rows_walked;
      const bool got = views[a].merge_from(views[b], &rows_walked);
      const bool want = refs[a].merge_from(refs[b]);
      ASSERT_EQ(got, want) << "merge_from return at step " << step;
      // A merge walks a row only if it changes something there.
      EXPECT_EQ(rows_walked > before, want) << "step " << step;
      EXPECT_LE(rows_walked - before, kRacks - 1) << "step " << step;
      if (want) ++merges_changed;
      what = "merge_from";
    } else if (op < 95) {
      const auto node = static_cast<NodeId>(rng.below(kRacks));
      views[a].admit(node);
      refs[a].admit(node);
      what = "admit";
    } else if (op < 98) {
      // Rejoin: the rack reboots with a fresh view; everyone admits it.
      const NodeId node = kOwners[a];
      views[a] = ctrl::MembershipView(kRacks, node, kQuorum);
      refs[a] = ReferenceView(kRacks, node, kQuorum);
      for (std::size_t i = 0; i < views.size(); ++i) {
        if (i == a) continue;
        views[i].admit(node);
        refs[i].admit(node);
      }
      what = "rejoin";
    } else {
      // Checkpoint round trip into a view of another owner.
      const std::string bytes = serialized(views[a]);
      ctrl::MembershipView back(kRacks, kOwners[(a + 1) % kOwners.size()],
                                kQuorum);
      ckpt::Reader r(bytes);
      ASSERT_TRUE(back.restore(r)) << r.error();
      ASSERT_TRUE(r.expect_end());
      views[a] = back;
      what = "restore";
    }
    for (std::size_t i = 0; i < views.size(); ++i) {
      const ctrl::MembershipView& v = views[i];
      const ReferenceView& ref = refs[i];
      ASSERT_EQ(v.revision(), ref.revision())
          << what << " at step " << step << ", view " << i;
      ASSERT_EQ(v.down_set(), ref.down_set())
          << what << " at step " << step << ", view " << i;
      bool any_down = false;
      for (NodeId obs = 0; obs < kRacks; ++obs) {
        ASSERT_EQ(v.node_down(obs), ref.node_down(obs))
            << what << " at step " << step << ", view " << i;
        for (NodeId peer = 0; peer < kRacks; ++peer) {
          ASSERT_EQ(v.link_down(obs, peer), ref.link_down(obs, peer))
              << what << " at step " << step << ", view " << i << ", link "
              << peer << "->" << obs;
          any_down = any_down || ref.link_down(obs, peer);
        }
      }
      ASSERT_EQ(v.any_link_down(), any_down)
          << what << " at step " << step << ", view " << i;
      ASSERT_EQ(serialized(v), ref.serialize())
          << what << " at step " << step << ", view " << i;
    }
  }
  // The walk exercised both merge outcomes and convicted someone.
  EXPECT_GT(merges_changed, 100);
  EXPECT_GT(rows_walked, merges_changed);
}

// Checkpoint bytes hold one verdict byte per link; anything but 0 or 1, or
// a vote tally that disagrees with the verdicts, is a corrupt view.
TEST(MembershipView, RestoreRejectsImpossibleVerdicts) {
  ctrl::MembershipView v(4, 1, 2);
  v.report_link(2, true);
  const std::string bytes = serialized(v);
  // Header: racks, owner, quorum (i32 each), revision, link count (u64);
  // then 5 bytes per link. Link 1 -> 2's verdict byte:
  const std::size_t verdict = 4 * 3 + 8 * 2 + (1 * 4 + 2) * 5 + 4;
  ASSERT_EQ(bytes[verdict], 1);
  {
    std::string bad = bytes;
    bad[verdict] = 2;
    ctrl::MembershipView back(4, 1, 2);
    ckpt::Reader r(bad);
    EXPECT_FALSE(back.restore(r));
    EXPECT_NE(r.error().find("verdict"), std::string::npos) << r.error();
  }
  {
    std::string bad = bytes;
    bad[verdict] = 0;  // the tally still counts the vote
    ctrl::MembershipView back(4, 1, 2);
    ckpt::Reader r(bad);
    EXPECT_FALSE(back.restore(r));
    EXPECT_NE(r.error().find("tally"), std::string::npos) << r.error();
  }
  ctrl::MembershipView back(4, 1, 2);
  ckpt::Reader r(bytes);
  EXPECT_TRUE(back.restore(r)) << r.error();
  EXPECT_TRUE(back.link_down(1, 2));
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
