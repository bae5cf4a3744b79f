// Unit + property tests for the static cyclic schedule (§4.2).
#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "sched/schedule.hpp"

namespace sirius::sched {
namespace {

TEST(CyclicSchedule, RoundLength) {
  EXPECT_EQ(CyclicSchedule(64, 12).slots_per_round(), 6);   // ceil(63/12)
  EXPECT_EQ(CyclicSchedule(128, 12).slots_per_round(), 11); // ceil(127/12)
  EXPECT_EQ(CyclicSchedule(4, 2).slots_per_round(), 2);     // Fig. 5b epoch
  EXPECT_EQ(CyclicSchedule(16, 1).slots_per_round(), 15);
}

TEST(CyclicSchedule, NeverSelf) {
  CyclicSchedule s(16, 4);
  for (std::int64_t t = 0; t < 32; ++t) {
    for (NodeId n = 0; n < 16; ++n) {
      for (UplinkId u = 0; u < 4; ++u) {
        EXPECT_NE(s.peer_tx(n, u, t), n);
      }
    }
  }
}

TEST(CyclicSchedule, RxInvertsTx) {
  CyclicSchedule s(20, 3);
  for (std::int64_t t = 0; t < s.slots_per_round() * 2; ++t) {
    for (NodeId n = 0; n < 20; ++n) {
      for (UplinkId u = 0; u < 3; ++u) {
        const NodeId dst = s.peer_tx(n, u, t);
        if (dst == kInvalidNode) {
          EXPECT_EQ(s.peer_rx(n, u, t), kInvalidNode);
          continue;
        }
        EXPECT_EQ(s.peer_rx(dst, u, t), n);
      }
    }
  }
}

TEST(CyclicSchedule, ConnectionLookupAgreesWithSchedule) {
  CyclicSchedule s(24, 4);
  for (NodeId a = 0; a < 24; ++a) {
    for (NodeId b = 0; b < 24; ++b) {
      if (a == b) continue;
      const auto c = s.connection(a, b);
      EXPECT_EQ(s.peer_tx(a, c.uplink, c.slot_in_round), b);
    }
  }
}

TEST(CyclicSchedule, RoundIndexing) {
  CyclicSchedule s(10, 3);  // 3 slots per round
  EXPECT_EQ(s.round_of(0), 0);
  EXPECT_EQ(s.round_of(2), 0);
  EXPECT_EQ(s.round_of(3), 1);
  EXPECT_EQ(s.round_start(4), 12);
}

// Property sweep: for many (N, U) shapes, one round connects every ordered
// pair exactly once and no receiver hears two senders in one slot.
class SchedulePropertyTest
    : public ::testing::TestWithParam<std::tuple<std::int32_t, std::int32_t>> {
};

TEST_P(SchedulePropertyTest, EachPairOncePerRound) {
  const auto [n, u] = GetParam();
  CyclicSchedule s(n, u);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (std::int64_t t = 0; t < s.slots_per_round(); ++t) {
    for (NodeId src = 0; src < n; ++src) {
      for (UplinkId up = 0; up < u; ++up) {
        const NodeId dst = s.peer_tx(src, up, t);
        if (dst == kInvalidNode) continue;
        EXPECT_TRUE(seen.insert({src, dst}).second)
            << "pair (" << src << "," << dst << ") connected twice";
      }
    }
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(n) * (n - 1));
}

TEST_P(SchedulePropertyTest, ContentionFreePerSlot) {
  const auto [n, u] = GetParam();
  CyclicSchedule s(n, u);
  for (std::int64_t t = 0; t < s.slots_per_round(); ++t) {
    for (UplinkId up = 0; up < u; ++up) {
      std::set<NodeId> receivers;
      for (NodeId src = 0; src < n; ++src) {
        const NodeId dst = s.peer_tx(src, up, t);
        if (dst == kInvalidNode) continue;
        EXPECT_TRUE(receivers.insert(dst).second)
            << "two senders hit " << dst << " on uplink " << up;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SchedulePropertyTest,
    ::testing::Values(std::make_tuple(4, 2), std::make_tuple(8, 4),
                      std::make_tuple(16, 4), std::make_tuple(16, 5),
                      std::make_tuple(64, 12), std::make_tuple(128, 12),
                      std::make_tuple(9, 2), std::make_tuple(3, 1),
                      std::make_tuple(100, 7)));

// The slot kernel reads peers from the flattened table, so it must agree
// with peer_tx at every (slot, node, uplink), including idle padding and
// the non-members of an alive-set schedule, for any slot beyond the first
// round too.
void expect_table_matches(const CyclicSchedule& s, std::int32_t nodes) {
  PeerTable table;
  table.build(s, nodes);
  ASSERT_EQ(table.uplinks(), s.uplinks());
  for (std::int64_t t = 0; t < 3 * s.slots_per_round(); ++t) {
    for (NodeId n = 0; n < nodes; ++n) {
      for (UplinkId u = 0; u < s.uplinks(); ++u) {
        ASSERT_EQ(table.peer(n, u, t), s.peer_tx(n, u, t))
            << "slot " << t << " node " << n << " uplink " << u;
      }
    }
  }
}

TEST(PeerTable, MatchesPeerTxOnFullSchedule) {
  expect_table_matches(CyclicSchedule(16, 6), 16);  // 3 padding slots
  expect_table_matches(CyclicSchedule(128, 12), 128);
}

TEST(PeerTable, MatchesPeerTxOnMemberSchedule) {
  // Nodes 2, 5 and 9 of a 12-node network are out of the schedule.
  expect_table_matches(CyclicSchedule({0, 1, 3, 4, 6, 7, 8, 10, 11}, 3), 12);
}

TEST(PeerTable, RebuildFollowsTheSchedule) {
  PeerTable table;
  table.build(CyclicSchedule(8, 2), 8);
  const CyclicSchedule smaller({0, 1, 2, 4, 5, 6, 7}, 2);
  table.build(smaller, 8);
  for (NodeId n = 0; n < 8; ++n) {
    for (UplinkId u = 0; u < 2; ++u) {
      EXPECT_EQ(table.peer(n, u, 1), smaller.peer_tx(n, u, 1));
    }
  }
}

TEST(PhysicalSchedule, ContentionFreeOnBlockTopology) {
  // N divisible into blocks, one uplink per block: the strided schedule
  // maps onto gratings without collisions.
  for (const auto& [nodes, ports] :
       std::vector<std::pair<std::int32_t, std::int32_t>>{
           {8, 2}, {16, 4}, {64, 8}}) {
    topo::SiriusTopologyConfig tc;
    tc.nodes = nodes;
    tc.grating_ports = ports;
    topo::SiriusTopology topo(tc);
    CyclicSchedule sched(nodes, topo.uplinks_per_node());
    EXPECT_TRUE(physically_contention_free(topo, sched))
        << nodes << " nodes, " << ports << "-port gratings";
  }
}

TEST(PhysicalSchedule, ContentionFreeWithReplicas) {
  topo::SiriusTopologyConfig tc;
  tc.nodes = 16;
  tc.grating_ports = 8;  // 2 blocks
  tc.replicas = 2;       // 4 uplinks per node
  topo::SiriusTopology topo(tc);
  CyclicSchedule sched(16, topo.uplinks_per_node());
  EXPECT_TRUE(physically_contention_free(topo, sched));
}

}  // namespace
}  // namespace sirius::sched
