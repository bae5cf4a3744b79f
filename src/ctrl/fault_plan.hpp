// Declarative fault timeline for the simulator (§4.5 fault tolerance).
//
// A FaultPlan is a seed-independent description of *what goes wrong and
// when*: hard rack failures (with optional recovery), and grey links that
// drop each burst of one directed pair with a fixed probability inside a
// time window. The plan is ground truth — the simulated nodes never read
// it; they must discover every fault in-band through missed schedule
// bursts (ctrl::PeerHealth) and piggybacked failed-set dissemination
// (ctrl::MembershipView). Keeping the timeline declarative makes fault
// runs reproducible: a (config, seed, plan) triple fully determines the
// experiment, including the Bernoulli draws of every grey link.
//
// Plans are built from code (fail_rack / grey_link) or parsed from the
// sirius_cli --fault / --grey syntax (see parse_fault / parse_grey).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "common/units.hpp"

namespace sirius::ctrl {

/// Hard fail-stop: the rack transmits, receives and relays nothing in
/// [at, recover_at). An infinite recover_at means it never comes back.
struct RackFault {
  NodeId rack = 0;
  Time at;
  Time recover_at = Time::infinity();
};

/// Grey failure: each burst on the directed link src -> dst is lost with
/// probability `loss` while `from <= t < until`. A bounded window with
/// loss 1.0 models a transient total outage of one link.
struct GreyLink {
  NodeId src = 0;
  NodeId dst = 0;
  double loss = 0.0;
  Time from;
  Time until = Time::infinity();
};

class FaultPlan {
 public:
  FaultPlan() = default;

  void fail_rack(NodeId rack, Time at, Time recover_at = Time::infinity());
  void grey_link(NodeId src, NodeId dst, double loss,
                 Time from = Time::zero(), Time until = Time::infinity());

  [[nodiscard]] bool empty() const {
    return rack_faults_.empty() && grey_links_.empty();
  }
  [[nodiscard]] const std::vector<RackFault>& rack_faults() const {
    return rack_faults_;
  }
  [[nodiscard]] const std::vector<GreyLink>& grey_links() const {
    return grey_links_;
  }

  /// Ground truth: is `rack` down (fail-stopped) at time `t`?
  [[nodiscard]] bool rack_down(NodeId rack, Time t) const;

  /// Burst loss probability on the directed link src -> dst at `t`
  /// (0 when the link is clean; overlapping windows combine as
  /// independent loss processes).
  [[nodiscard]] double link_loss(NodeId src, NodeId dst, Time t) const;

  /// True when some grey window (at any time) covers src -> dst; a cheap
  /// gate so the per-slot hot path can skip link_loss for clean links.
  [[nodiscard]] bool link_ever_grey(NodeId src, NodeId dst) const;

  /// True when the plan needs mid-run machinery: any rack fault with
  /// at > 0 or a recovery, or any grey link. A plan of pure t=0
  /// never-recovering failures is static: those racks are left out of
  /// the schedule for the whole run.
  [[nodiscard]] bool dynamic() const;

  /// Racks that are down at t = 0 (initial schedule membership).
  [[nodiscard]] std::vector<NodeId> down_at_start() const;

  /// Earliest disruption that the fabric must react to mid-run: the
  /// smallest positive rack-fault time or grey-window start. Infinite for
  /// static-only or empty plans. Anchors the recovery-curve analysis.
  [[nodiscard]] Time first_disruption() const;

  /// Validates every event against an N-rack network: rack ids in
  /// [0, racks), no duplicate fault for one rack, recovery after failure,
  /// loss in (0, 1], grey windows ordered and src != dst. Returns a
  /// human-readable error, or nullopt when the plan is well-formed.
  [[nodiscard]] std::optional<std::string> validate(std::int32_t racks) const;

  /// Parses one or more comma-separated hard-failure specs
  /// "RACK@T_US[+DURATION_US]": "3@120" fails rack 3 at 120 us forever,
  /// "3@120+500" recovers it 500 us later, "3@0" is a static failure.
  /// Returns an error message, or nullopt on success.
  std::optional<std::string> parse_fault(const std::string& spec);

  /// Parses one or more comma-separated grey-link specs
  /// "SRC>DST@LOSS[@FROM_US-UNTIL_US]": "2>7@0.05" drops 5 % of bursts
  /// from rack 2 to rack 7 for the whole run, "2>7@1.0@100-400" blacks
  /// the link out between 100 us and 400 us. Returns an error message,
  /// or nullopt on success.
  std::optional<std::string> parse_grey(const std::string& spec);

 private:
  std::vector<RackFault> rack_faults_;
  std::vector<GreyLink> grey_links_;
};

}  // namespace sirius::ctrl
