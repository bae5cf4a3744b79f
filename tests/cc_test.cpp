// Unit tests for the request/grant congestion control (§4.3).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "cc/request_grant.hpp"

namespace sirius::cc {
namespace {

RequestGrantConfig cfg(std::int32_t nodes, std::int32_t q = 4) {
  return RequestGrantConfig{nodes, q};
}

std::vector<RequestGrantNode::OutgoingRequest> requests_of(
    RequestGrantNode& n, const std::vector<NodeId>& pending,
    std::int64_t epoch, Rng& rng) {
  std::vector<RequestGrantNode::OutgoingRequest> out;
  n.build_requests(
      pending, epoch, rng, [](NodeId) { return true; },
      [](NodeId, NodeId) { return true; }, &out);
  return out;
}

template <typename QueuedFn>
std::vector<Grant> grants_of(RequestGrantNode& n, QueuedFn&& queued_for,
                             Rng& rng) {
  std::vector<Grant> out;
  n.issue_grants(queued_for, rng, &out);
  return out;
}

TEST(BuildRequests, OnePerIntermediateAndNeverSelf) {
  RequestGrantNode n(0, cfg(16));
  Rng rng(1);
  // 40 pending cells, all to node 5: at most 15 requests (one per possible
  // intermediate), none to ourselves.
  std::vector<NodeId> pending(40, 5);
  const auto reqs = requests_of(n, pending, 0, rng);
  EXPECT_EQ(reqs.size(), 15u);
  std::set<NodeId> intermediates;
  for (const auto& r : reqs) {
    EXPECT_NE(r.intermediate, 0);
    EXPECT_EQ(r.dst, 5);
    EXPECT_TRUE(intermediates.insert(r.intermediate).second);
  }
}

TEST(BuildRequests, FollowsFifoOrderOfPendingCells) {
  RequestGrantNode n(2, cfg(8));
  Rng rng(2);
  const std::vector<NodeId> pending = {1, 3, 1};
  const auto reqs = requests_of(n, pending, 0, rng);
  ASSERT_EQ(reqs.size(), 3u);
  EXPECT_EQ(reqs[0].dst, 1);
  EXPECT_EQ(reqs[1].dst, 3);
  EXPECT_EQ(reqs[2].dst, 1);
}

TEST(BuildRequests, EmptyLocalMeansNoRequests) {
  RequestGrantNode n(0, cfg(8));
  Rng rng(3);
  EXPECT_TRUE(requests_of(n, {}, 0, rng).empty());
}

TEST(BuildRequests, IntermediatesUniformlySpread) {
  // Over many epochs, each intermediate should be picked roughly equally
  // (the uniform spreading is what flattens the demand matrix).
  RequestGrantNode n(0, cfg(9));
  Rng rng(4);
  std::map<NodeId, int> counts;
  for (int epoch = 0; epoch < 8'000; ++epoch) {
    for (const auto& r : requests_of(n, {4}, epoch, rng)) {
      ++counts[r.intermediate];
    }
  }
  ASSERT_EQ(counts.size(), 8u);
  for (const auto& [node, c] : counts) {
    EXPECT_NEAR(c, 1'000, 120) << "intermediate " << node;
  }
}

TEST(IssueGrants, OneGrantPerDestinationPerEpoch) {
  RequestGrantNode i(7, cfg(16));
  // Three sources all want to relay to destination 2 through node 7.
  i.receive_request({0, 2});
  i.receive_request({1, 2});
  i.receive_request({3, 2});
  Rng rng(5);
  const auto grants = grants_of(i, [](NodeId) { return 0; }, rng);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].intermediate, 7);
  EXPECT_EQ(grants[0].dst, 2);
  EXPECT_EQ(i.outstanding(2), 1);
}

TEST(IssueGrants, RandomSelectionAmongRequesters) {
  Rng rng(6);
  std::map<NodeId, int> winners;
  for (int epoch = 0; epoch < 3'000; ++epoch) {
    RequestGrantNode i(7, cfg(16));
    i.receive_request({0, 2});
    i.receive_request({1, 2});
    i.receive_request({3, 2});
    const auto grants = grants_of(i, [](NodeId) { return 0; }, rng);
    ASSERT_EQ(grants.size(), 1u);
    ++winners[grants[0].to];
  }
  EXPECT_EQ(winners.size(), 3u);
  for (const auto& [src, c] : winners) {
    EXPECT_NEAR(c, 1'000, 150) << "source " << src;
  }
}

TEST(IssueGrants, QueueBoundRespected) {
  RequestGrantNode i(1, cfg(8, /*q=*/2));
  Rng rng(7);
  // Queue for dst 4 already holds 2 cells: no grant.
  i.receive_request({0, 4});
  EXPECT_TRUE(grants_of(i, [](NodeId) { return 2; }, rng).empty());
  // One slot free: grant.
  i.receive_request({0, 4});
  EXPECT_EQ(grants_of(i, [](NodeId) { return 1; }, rng).size(), 1u);
  // Now queued(1) + outstanding(1) == Q: no further grant.
  i.receive_request({0, 4});
  EXPECT_TRUE(grants_of(i, [](NodeId) { return 1; }, rng).empty());
}

TEST(IssueGrants, OutstandingDecrementsOnArrivalAndRelease) {
  RequestGrantNode i(1, cfg(8, 4));
  Rng rng(8);
  i.receive_request({0, 3});
  grants_of(i, [](NodeId) { return 0; }, rng);
  EXPECT_EQ(i.outstanding(3), 1);
  i.on_granted_cell_arrival(3);
  EXPECT_EQ(i.outstanding(3), 0);

  i.receive_request({0, 3});
  grants_of(i, [](NodeId) { return 0; }, rng);
  EXPECT_EQ(i.outstanding(3), 1);
  i.on_grant_release(3);
  EXPECT_EQ(i.outstanding(3), 0);
  // Never negative.
  i.on_grant_release(3);
  EXPECT_EQ(i.outstanding(3), 0);
}

TEST(IssueGrants, DistinctDestinationsGrantIndependently) {
  RequestGrantNode i(0, cfg(8, 4));
  Rng rng(9);
  i.receive_request({1, 2});
  i.receive_request({3, 4});
  i.receive_request({5, 6});
  const auto grants = grants_of(i, [](NodeId) { return 0; }, rng);
  EXPECT_EQ(grants.size(), 3u);
}

TEST(IssueGrants, InboxClearedEachEpoch) {
  RequestGrantNode i(0, cfg(8, 4));
  Rng rng(10);
  i.receive_request({1, 2});
  EXPECT_EQ(grants_of(i, [](NodeId) { return 0; }, rng).size(), 1u);
  // The same request must not be considered again next epoch.
  EXPECT_TRUE(grants_of(i, [](NodeId) { return 0; }, rng).empty());
}

// Counts, for one fully-loaded epoch (every source has one pending cell
// per destination), how many requests are lost to (intermediate,
// destination) collisions under the given spread policy.
std::int64_t collisions_in_epoch(SpreadPolicy policy, std::int64_t epoch,
                                 Rng& rng) {
  constexpr std::int32_t kNodes = 12;
  RequestGrantConfig c{kNodes, 4, policy};
  std::set<std::pair<NodeId, NodeId>> inter_dst;
  std::int64_t collisions = 0;
  for (NodeId src = 0; src < kNodes; ++src) {
    RequestGrantNode n(src, c);
    std::vector<NodeId> pending;
    for (NodeId d = 0; d < kNodes; ++d) {
      if (d != src) pending.push_back(d);
    }
    for (const auto& r : requests_of(n, pending, epoch, rng)) {
      if (!inter_dst.insert({r.intermediate, r.dst}).second) ++collisions;
    }
  }
  return collisions;
}

TEST(SpreadPolicy, DesynchronizedNearlyCollisionFree) {
  // Every source's first-choice requests land on distinct (intermediate,
  // destination) pairs by construction; the single per-source fallback
  // (the destination whose rotating slot is the source itself) is the only
  // possible collision source. Random spreading, in contrast, loses a
  // large constant fraction (~1-1/e of grant opportunities).
  Rng rng(21);
  std::int64_t desync_total = 0, random_total = 0;
  constexpr std::int64_t kEpochs = 40;
  for (std::int64_t e = 0; e < kEpochs; ++e) {
    desync_total += collisions_in_epoch(SpreadPolicy::kDesynchronized, e, rng);
    random_total += collisions_in_epoch(SpreadPolicy::kRandom, e, rng);
  }
  // Roughly one fallback per source per epoch, and those fallbacks all
  // chase the same blind-spot destination, so they mostly collide: ~N
  // collisions per epoch versus ~N^2(1-1/e)/N... for random spreading.
  EXPECT_LE(desync_total, kEpochs * 15);
  EXPECT_LT(desync_total * 3, random_total);
}

TEST(SpreadPolicy, RandomPolicyStillOnePerIntermediate) {
  RequestGrantConfig c{10, 4, SpreadPolicy::kRandom};
  RequestGrantNode n(0, c);
  Rng rng(22);
  std::vector<NodeId> pending(30, 5);
  const auto reqs = requests_of(n, pending, 0, rng);
  EXPECT_EQ(reqs.size(), 9u);
  std::set<NodeId> seen;
  for (const auto& r : reqs) EXPECT_TRUE(seen.insert(r.intermediate).second);
}

// Property sweep: grants per destination never exceed Q across many epochs
// of random request traffic, counting outstanding correctly.
class QueueBoundProperty : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(QueueBoundProperty, NeverExceedsQ) {
  const std::int32_t q = GetParam();
  RequestGrantNode inter(0, cfg(12, q));
  Rng rng(11 + static_cast<std::uint64_t>(q));
  std::vector<std::int32_t> queue(12, 0);  // simulated relay queues
  for (int epoch = 0; epoch < 2'000; ++epoch) {
    // Random requests from random sources for random destinations.
    const int n_req = static_cast<int>(rng.below(6));
    for (int k = 0; k < n_req; ++k) {
      const auto src = static_cast<NodeId>(1 + rng.below(11));
      const auto dst = static_cast<NodeId>(1 + rng.below(11));
      inter.receive_request({src, dst});
    }
    auto grants = grants_of(
        inter,
        [&queue](NodeId d) { return queue[static_cast<std::size_t>(d)]; },
        rng);
    for (const auto& g : grants) {
      // Granted cell arrives this epoch.
      ++queue[static_cast<std::size_t>(g.dst)];
      inter.on_granted_cell_arrival(g.dst);
      ASSERT_LE(queue[static_cast<std::size_t>(g.dst)], q);
    }
    // The relay drains one cell per destination per epoch.
    for (auto& depth : queue) {
      if (depth > 0) --depth;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(QueueLimits, QueueBoundProperty,
                         ::testing::Values(2, 4, 8, 16));

}  // namespace
}  // namespace sirius::cc
