// Domain auditors: whole-structure checks over the live simulator state,
// built on SIRIUS_INVARIANT (see invariant.hpp). Modules register the
// auditors that concern them in an AuditorRegistry; the simulator runs the
// registry at round boundaries (SiriusSimConfig::audit_period_rounds) and at
// the end of every run, so a violated property is caught within one audit
// period instead of surfacing later as a corrupted statistic.
//
// This header holds the registry and the *structural* auditors — the ones
// stated over plain values, below every module layer:
//   * audit_destination_permutation — no destination appears twice in a
//     slot's receiver list (the §4.2 contention-freeness core);
//   * audit_cell_conservation — every cell taken from a source LOCAL buffer
//     is delivered, queued, or on the wire (nothing duplicated or lost);
//   * audit_in_order_release — the receiver releases the in-order prefix
//     and nothing else (§4.2 "Cell reordering");
//   * audit_clock_offsets — after §4.4 sync convergence, mutual clock
//     offsets stay inside the configured bound.
//
// Auditors over live module types live with their modules, so check/ never
// depends upward (the layer-order lint rule enforces it):
//   * sched/schedule_audit.hpp — audit_slot_permutation;
//   * node/node_audit.hpp — audit_queue_bound, audit_reorder.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace sirius::check {

/// A named set of audit callbacks. Plain value type: each SiriusSim owns its
/// own registry, so concurrent sims (param sweeps) never share audit state.
class AuditorRegistry {
 public:
  void register_auditor(std::string name, std::function<void()> fn);
  /// Runs every registered auditor; violations are routed through the
  /// InvariantContext like any other SIRIUS_INVARIANT.
  void run_all() const;
  std::size_t size() const { return auditors_.size(); }
  std::vector<std::string> names() const;

 private:
  struct Entry {
    std::string name;
    std::function<void()> fn;
  };
  std::vector<Entry> auditors_;
};

/// Core permutation check: no destination may appear twice (kInvalidNode
/// entries are idle uplinks and exempt). `what` labels the report. `seen`
/// is the caller's scratch, kept across calls so that a periodic audit
/// stops allocating once it has held the largest destination id.
void audit_destination_permutation(const std::vector<NodeId>& dsts,
                                   const char* what,
                                   std::vector<std::uint8_t>& seen);

/// Conservation: injected == delivered + queued + in_flight + dropped.
void audit_cell_conservation(std::int64_t injected, std::int64_t delivered,
                             std::int64_t queued, std::int64_t in_flight,
                             std::int64_t dropped);

/// The sequence of released cell seqs must be strictly increasing (the
/// in-order-release contract, checked from the outside).
void audit_in_order_release(const std::vector<std::int32_t>& released);

/// All clock phase offsets finite, and every pairwise spread <= bound_ps.
void audit_clock_offsets(const std::vector<double>& offsets_ps,
                         double bound_ps);

}  // namespace sirius::check
