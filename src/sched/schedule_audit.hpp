// Schedule auditor: the §4.2 contention-freeness property, audited over a
// live CyclicSchedule.
//
// Lives in sched/ (not check/) so the check layer never depends upward on
// the modules it audits: check/ owns the registry and the structural
// primitives (audit_destination_permutation), and each module exports the
// auditors over its own types (cf. node/node_audit.hpp). The layer-order
// lint rule enforces the direction.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace sirius::sched {

class CyclicSchedule;

/// The buffers audit_slot_permutation fills, kept by the caller from one
/// audit to the next so that a periodic audit does not allocate.
struct PermutationScratch {
  std::vector<NodeId> dsts;
  std::vector<std::uint8_t> seen;
};

/// Audits slot `slot` of the schedule: the tx map over (member, uplink) is
/// a partial permutation, destinations are members distinct from their
/// source, and peer_rx inverts peer_tx.
void audit_slot_permutation(const CyclicSchedule& sched, std::int64_t slot,
                            PermutationScratch& scratch);

}  // namespace sirius::sched
