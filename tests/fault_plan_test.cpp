// Tests for the §4.5 fault-injection building blocks: the declarative
// FaultPlan timeline (construction, parsing, validation, ground-truth
// queries) and the shared in-band detector state (PeerHealth consecutive
// -miss counters, MembershipView versioned link verdicts and quorum).
#include <gtest/gtest.h>

#include "ctrl/fault_plan.hpp"
#include "ctrl/peer_health.hpp"

namespace sirius {
namespace {

// ---- FaultPlan: timeline semantics ----------------------------------------

TEST(FaultPlan, RackDownWindow) {
  ctrl::FaultPlan p;
  p.fail_rack(3, Time::ns(1'000), Time::ns(5'000));
  EXPECT_FALSE(p.rack_down(3, Time::ns(999)));
  EXPECT_TRUE(p.rack_down(3, Time::ns(1'000)));   // [at, ...
  EXPECT_TRUE(p.rack_down(3, Time::ns(4'999)));
  EXPECT_FALSE(p.rack_down(3, Time::ns(5'000)));  // ... recover_at)
  EXPECT_FALSE(p.rack_down(2, Time::ns(2'000)));
}

TEST(FaultPlan, PermanentFailureNeverRecovers) {
  ctrl::FaultPlan p;
  p.fail_rack(1, Time::zero());
  EXPECT_TRUE(p.rack_down(1, Time::zero()));
  EXPECT_TRUE(p.rack_down(1, Time::sec(100)));
}

TEST(FaultPlan, LinkLossWindowAndCombination) {
  ctrl::FaultPlan p;
  p.grey_link(2, 7, 0.5, Time::ns(100), Time::ns(200));
  EXPECT_DOUBLE_EQ(p.link_loss(2, 7, Time::ns(99)), 0.0);
  EXPECT_DOUBLE_EQ(p.link_loss(2, 7, Time::ns(150)), 0.5);
  EXPECT_DOUBLE_EQ(p.link_loss(2, 7, Time::ns(200)), 0.0);
  // The reverse direction is clean: grey links are directed.
  EXPECT_DOUBLE_EQ(p.link_loss(7, 2, Time::ns(150)), 0.0);
  // Overlapping windows combine as independent loss processes.
  p.grey_link(2, 7, 0.5, Time::ns(120), Time::ns(180));
  EXPECT_DOUBLE_EQ(p.link_loss(2, 7, Time::ns(150)), 0.75);
  EXPECT_TRUE(p.link_ever_grey(2, 7));
  EXPECT_FALSE(p.link_ever_grey(7, 2));
}

TEST(FaultPlan, DynamicVsStatic) {
  ctrl::FaultPlan empty;
  EXPECT_FALSE(empty.dynamic());
  EXPECT_TRUE(empty.empty());

  ctrl::FaultPlan static_only;
  static_only.fail_rack(0, Time::zero());
  EXPECT_FALSE(static_only.dynamic());  // racks down for the whole run
  EXPECT_EQ(static_only.down_at_start(), std::vector<NodeId>{0});
  EXPECT_TRUE(static_only.first_disruption().is_infinite());

  ctrl::FaultPlan recovers;
  recovers.fail_rack(0, Time::zero(), Time::ns(500));
  EXPECT_TRUE(recovers.dynamic());  // recovery needs mid-run machinery

  ctrl::FaultPlan midrun;
  midrun.fail_rack(4, Time::ns(300));
  EXPECT_TRUE(midrun.dynamic());
  EXPECT_TRUE(midrun.down_at_start().empty());
  EXPECT_EQ(midrun.first_disruption(), Time::ns(300));

  ctrl::FaultPlan grey;
  grey.grey_link(1, 2, 0.1, Time::ns(700));
  EXPECT_TRUE(grey.dynamic());
  EXPECT_EQ(grey.first_disruption(), Time::ns(700));
}

// ---- FaultPlan: parsing ---------------------------------------------------

TEST(FaultPlan, ParseFaultSpecs) {
  ctrl::FaultPlan p;
  EXPECT_FALSE(p.parse_fault("3@120+500").has_value());
  EXPECT_FALSE(p.parse_fault("0@0,7@60").has_value());
  ASSERT_EQ(p.rack_faults().size(), 3u);
  EXPECT_EQ(p.rack_faults()[0].rack, 3);
  EXPECT_EQ(p.rack_faults()[0].at, Time::from_ns(120e3));
  EXPECT_EQ(p.rack_faults()[0].recover_at, Time::from_ns(620e3));
  EXPECT_EQ(p.rack_faults()[1].rack, 0);
  EXPECT_TRUE(p.rack_faults()[1].recover_at.is_infinite());
  EXPECT_EQ(p.rack_faults()[2].rack, 7);
}

TEST(FaultPlan, ParseGreySpecs) {
  ctrl::FaultPlan p;
  EXPECT_FALSE(p.parse_grey("2>7@0.05@100-400").has_value());
  EXPECT_FALSE(p.parse_grey("1>3@1.0").has_value());
  ASSERT_EQ(p.grey_links().size(), 2u);
  EXPECT_EQ(p.grey_links()[0].src, 2);
  EXPECT_EQ(p.grey_links()[0].dst, 7);
  EXPECT_DOUBLE_EQ(p.grey_links()[0].loss, 0.05);
  EXPECT_EQ(p.grey_links()[0].from, Time::from_ns(100e3));
  EXPECT_EQ(p.grey_links()[0].until, Time::from_ns(400e3));
  EXPECT_TRUE(p.grey_links()[1].until.is_infinite());
}

TEST(FaultPlan, ParseRejectsGarbage) {
  ctrl::FaultPlan p;
  EXPECT_FALSE(p.parse_fault("").has_value());  // empty spec is a no-op
  EXPECT_TRUE(p.parse_fault("3").has_value());         // missing @time
  EXPECT_TRUE(p.parse_fault("x@12").has_value());      // not a rack id
  EXPECT_TRUE(p.parse_grey("2-7@0.1").has_value());    // missing '>'
  EXPECT_TRUE(p.parse_grey("2>7").has_value());        // missing loss
  EXPECT_TRUE(p.grey_links().empty());
}

// ---- FaultPlan: validation ------------------------------------------------

TEST(FaultPlan, ValidateAcceptsWellFormed) {
  ctrl::FaultPlan p;
  p.fail_rack(3, Time::ns(100), Time::ns(900));
  p.fail_rack(5, Time::zero());
  p.grey_link(0, 1, 1.0, Time::ns(50), Time::ns(60));
  EXPECT_FALSE(p.validate(8).has_value());
}

TEST(FaultPlan, ValidateRejectsBadPlans) {
  {
    ctrl::FaultPlan p;  // rack id out of range
    p.fail_rack(8, Time::zero());
    EXPECT_TRUE(p.validate(8).has_value());
  }
  {
    ctrl::FaultPlan p;  // duplicate fault for one rack
    p.fail_rack(2, Time::zero());
    p.fail_rack(2, Time::ns(100));
    EXPECT_TRUE(p.validate(8).has_value());
  }
  {
    ctrl::FaultPlan p;  // recovery not after failure
    p.fail_rack(2, Time::ns(100), Time::ns(100));
    EXPECT_TRUE(p.validate(8).has_value());
  }
  {
    ctrl::FaultPlan p;  // loss outside (0, 1]
    p.grey_link(0, 1, 1.5);
    EXPECT_TRUE(p.validate(8).has_value());
  }
  {
    ctrl::FaultPlan p;  // grey link to self
    p.grey_link(3, 3, 0.5);
    EXPECT_TRUE(p.validate(8).has_value());
  }
  {
    ctrl::FaultPlan p;  // empty grey window
    p.grey_link(0, 1, 0.5, Time::ns(200), Time::ns(200));
    EXPECT_TRUE(p.validate(8).has_value());
  }
}

// ---- PeerHealth: consecutive-miss detector --------------------------------

TEST(PeerHealth, DeclaresExactlyAtThreshold) {
  ctrl::PeerHealth h(4, /*miss_threshold=*/3);
  EXPECT_FALSE(h.record_miss(1));
  EXPECT_FALSE(h.record_miss(1));
  EXPECT_FALSE(h.declared(1));
  EXPECT_TRUE(h.record_miss(1));  // the threshold-crossing miss, once
  EXPECT_TRUE(h.declared(1));
  // Once convicted the run saturates: no re-declaration, no growth.
  EXPECT_FALSE(h.record_miss(1));
  EXPECT_EQ(h.misses(1), 3);
}

TEST(PeerHealth, HitResetsTheRun) {
  ctrl::PeerHealth h(4, 3);
  h.record_miss(2);
  h.record_miss(2);
  h.record_hit(2);  // a single heard burst resets
  EXPECT_EQ(h.misses(2), 0);
  EXPECT_FALSE(h.record_miss(2));
  EXPECT_FALSE(h.record_miss(2));
  EXPECT_TRUE(h.record_miss(2));  // needs a fresh full run
}

TEST(PeerHealth, ResetForgetsDeclaration) {
  ctrl::PeerHealth h(4, 2);
  h.record_miss(3);
  h.record_miss(3);
  EXPECT_TRUE(h.declared(3));
  h.reset(3);
  EXPECT_FALSE(h.declared(3));
  EXPECT_EQ(h.misses(3), 0);
  // Peers are independent: resetting 3 does not touch 1.
  h.record_miss(1);
  h.record_miss(1);
  EXPECT_TRUE(h.declared(1));
}

// ---- MembershipView: versioned verdicts and quorum ------------------------

TEST(MembershipView, QuorumConvictsExcludingSelfVote) {
  ctrl::MembershipView v(6, /*owner=*/0, /*quorum=*/2);
  v.report_link(5, true);
  EXPECT_TRUE(v.link_down(0, 5));
  EXPECT_FALSE(v.node_down(5));  // one observer is not a quorum

  ctrl::MembershipView other(6, 1, 2);
  other.report_link(5, true);
  EXPECT_TRUE(v.merge_from(other));
  EXPECT_TRUE(v.node_down(5));  // two distinct observers convict
  EXPECT_EQ(v.down_set(), std::vector<NodeId>{5});
}

TEST(MembershipView, FresherVerdictWinsTheMerge) {
  ctrl::MembershipView a(4, 0, 1);
  ctrl::MembershipView b(4, 1, 1);
  // b learns a's stale "link 2 -> 0 down" verdict...
  a.report_link(2, true);
  EXPECT_TRUE(b.merge_from(a));
  EXPECT_TRUE(b.link_down(0, 2));
  // ... then a retracts (bumping the version); the retraction must
  // propagate even though b still holds the old "down" copy.
  a.report_link(2, false);
  EXPECT_TRUE(b.merge_from(a));
  EXPECT_FALSE(b.link_down(0, 2));
  // And b's stale copy must never resurrect the verdict in a third view.
  ctrl::MembershipView c(4, 3, 1);
  EXPECT_TRUE(c.merge_from(b));
  EXPECT_FALSE(c.link_down(0, 2));
}

TEST(MembershipView, MergeShortCircuitsOnRevision) {
  ctrl::MembershipView a(4, 0, 1);
  ctrl::MembershipView b(4, 1, 1);
  a.report_link(3, true);
  EXPECT_TRUE(b.merge_from(a));
  const auto rev = b.revision();
  // Nothing changed in a since the last merge: no-op, revision stable.
  EXPECT_FALSE(b.merge_from(a));
  EXPECT_EQ(b.revision(), rev);
}

TEST(MembershipView, AdmitClearsVerdictsByAndAboutTheNode) {
  ctrl::MembershipView a(4, 0, 1);
  ctrl::MembershipView rejoined(4, 2, 1);
  a.report_link(2, true);          // about node 2
  rejoined.report_link(0, true);   // by node 2 (its own stale row)
  EXPECT_TRUE(a.merge_from(rejoined));
  EXPECT_TRUE(a.node_down(2));
  EXPECT_TRUE(a.link_down(2, 0));
  a.admit(2);
  EXPECT_FALSE(a.node_down(2));
  EXPECT_FALSE(a.link_down(0, 2));
  EXPECT_FALSE(a.link_down(2, 0));
  // The admit bumps versions, so merging the pre-admit copy back in must
  // not resurrect the old verdicts.
  EXPECT_FALSE(a.merge_from(rejoined) && a.link_down(2, 0));
  EXPECT_FALSE(a.node_down(2));
}

}  // namespace
}  // namespace sirius
