// Slot-synchronous packet-level simulator of the Sirius network (§7).
//
// All Sirius transmissions happen on timeslot boundaries, so instead of a
// general event queue the simulator advances one slot at a time:
//
//   slot loop:
//     - at round boundaries, run the congestion-control epoch exchange
//       (grants from last epoch's requests, cell moves, new requests);
//     - inject flows whose Poisson arrival time has been reached;
//     - land cells that finished their fiber propagation;
//     - for every (node, uplink), the static cyclic schedule names the
//       peer; the node transmits one cell: a relayed cell for the peer
//       (forward queue) if any, else a granted first-hop cell towards the
//       peer (virtual queue).
//
// Three routing modes (RoutingMode):
//   * kValiant (default): the §4.3 request/grant protocol with queue bound Q;
//   * kIdeal: no request/grant round; sources spray cells round-robin over
//     their flows to the schedule-determined peer (per-flow-queue /
//     back-pressure idealisation, "Sirius (Ideal)" in Fig. 9);
//   * kDirect: no relaying; a cell waits for its (src, dst) slot.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "check/auditors.hpp"
#include "ckpt/io.hpp"
#include "common/rng.hpp"
#include "ctrl/fault_plan.hpp"
#include "ctrl/peer_health.hpp"
#include "node/node.hpp"
#include "node/pooled_queues.hpp"
#include "node/reorder_buffer.hpp"
#include "phy/slot_geometry.hpp"
#include "sched/schedule.hpp"
#include "stats/fct_tracker.hpp"
#include "stats/goodput.hpp"
#include "stats/occupancy.hpp"
#include "stats/recovery.hpp"
#include "telemetry/hub.hpp"
#include "workload/flow.hpp"

namespace sirius::sim {

/// How sources route cells over the static schedule.
enum class RoutingMode {
  /// Valiant/Chang load balancing through a random intermediate (§4.2) —
  /// what Sirius does; needs the request/grant congestion control.
  kValiant = 0,
  /// Direct-only: a cell waits for the slot that connects its source to
  /// its destination. No relaying, no congestion control — but each pair
  /// only owns uplinks/(N-1) of the node bandwidth, so skewed traffic
  /// strands most of the fabric (the §4.1 motivation for load balancing).
  kDirect = 1,
  /// Per-flow-queue idealisation ("Sirius (Ideal)" in Fig. 9): no
  /// request/grant round; sources spray cells round-robin over their flows
  /// to the schedule-determined peer, relays forward as in kValiant.
  kIdeal,
};

/// Consecutive missed schedule bursts before an observer declares a peer's
/// link dead (§4.5; rides out synchronisation hiccups).
inline constexpr std::int32_t kMissThreshold = 3;

struct SiriusSimConfig {
  std::int32_t racks = 64;
  std::int32_t servers_per_rack = 8;
  /// Rack uplinks an equivalent non-blocking ESN would have; Sirius gets
  /// base_uplinks * uplink_multiplier tunable transceivers (§7 uses 1.5x
  /// to compensate the two-hop load-balanced routing).
  std::int32_t base_uplinks = 8;
  double uplink_multiplier = 1.5;
  phy::SlotGeometry slots = phy::default_slot_geometry();
  std::int32_t queue_limit = 4;  ///< Q of §4.3
  /// Request-spreading policy (see cc::SpreadPolicy).
  cc::SpreadPolicy spread = cc::SpreadPolicy::kDesynchronized;
  RoutingMode routing = RoutingMode::kValiant;
  /// Server <-> rack-switch link rate (injection and delivery pacing).
  DataRate server_nic = DataRate::gbps(50);
  std::uint64_t seed = 1;
  /// Run the registered invariant auditors (schedule permutation, queue
  /// bound, cell conservation, reorder consistency) every this many rounds,
  /// plus once at the end of the run. 0 disables periodic audits.
  std::int64_t audit_period_rounds = 64;
  /// Declarative fault timeline (§4.5). A rack failed at t = 0 with no
  /// recovery is down for the whole run: the schedule is built over the
  /// alive set, every node excludes it as a relay intermediate, and flows
  /// touching it are rejected at injection (counted in
  /// SiriusSimResult::rejected_flows). Anything dynamic — a failure at
  /// t > 0, a recovery, or a grey link — enables the in-band failover
  /// machinery (kValiant routing only): per-node PeerHealth miss counters
  /// keyed off the cyclic schedule, piggybacked membership views, queue
  /// purging with explicit drop accounting, bounded retransmission, and a
  /// schedule swap once the alive nodes' views agree.
  ctrl::FaultPlan faults;
  /// Record a goodput-vs-time curve (SiriusSimResult::recovery_curve) and
  /// reduce it around the plan's first disruption into
  /// FailoverStats::recovery.
  bool record_recovery_curve = false;
  /// Telemetry sink (metrics export, cell tracing, flight recorder,
  /// profiling) — see src/telemetry/. Null means the sim owns a private
  /// disabled hub: the counters still count (they back SiriusSimResult)
  /// but nothing is recorded and no file is written. The hub is strictly
  /// write-only from the sim's point of view, so results are bit-identical
  /// with telemetry attached, detached, or compiled out.
  telemetry::Hub* telemetry = nullptr;
  /// Periodic checkpoint cadence in simulated time (zero = disabled). At
  /// the first top-of-slot point at or after each multiple of
  /// `checkpoint_every` — the consistent ledger point, before any slot
  /// work — `checkpoint_sink` receives the serialized state. Serialization
  /// is strictly read-only, so a checkpointing run is bit-identical to one
  /// without the sink.
  Time checkpoint_every = Time::zero();
  /// Receives (slot, now, payload) at the cadence above. The payload is
  /// the raw SiriusSim::checkpoint_state() bytes; frame it with
  /// ckpt::save() to get a crash-safe `sirius.ckpt.v1` file.
  std::function<void(std::int64_t slot, Time now, const std::string& payload)>
      checkpoint_sink;
  /// Stop the slot loop at the first slot whose work (including the
  /// round-boundary audit) records an invariant violation in
  /// check::InvariantMode::kCollect — the bisection replay knob: restore
  /// the nearest snapshot, set audit_period_rounds = 1 and this flag, and
  /// SiriusSimResult::slots_simulated pinpoints the first failing slot.
  bool stop_on_violation = false;

  [[nodiscard]] std::int32_t servers() const { return racks * servers_per_rack; }
  [[nodiscard]] std::int32_t uplinks() const {
    return static_cast<std::int32_t>(base_uplinks * uplink_multiplier + 0.5);
  }
  /// Provisioned per-server bandwidth (goodput normalisation): the rack's
  /// base uplink capacity divided among its servers.
  [[nodiscard]] DataRate server_share() const {
    return (slots.line_rate() * base_uplinks) / servers_per_rack;
  }
};

/// §4.5 failover observability: what the fault did and how the fabric
/// reacted, all derived in-band (no oracle timestamps except the plan's
/// own fault instant, which anchors the latencies).
struct FailoverStats {
  std::int64_t cells_dropped = 0;          ///< all drop causes, ledger-audited
  std::int64_t cells_retransmitted = 0;    ///< timeout resurrections
  std::int64_t retx_abandoned = 0;         ///< cells past the retry limit
  std::int64_t duplicates_discarded = 0;   ///< spurious retx copies at rx
  std::int64_t flows_aborted = 0;          ///< an endpoint rack died mid-flow
  std::int64_t schedule_swaps = 0;         ///< membership changes applied
  /// Rounds from the first disruption's round to the first in-band
  /// link-down declaration (-1 if never detected / no mid-run fault).
  std::int64_t detection_rounds = -1;
  /// Rounds from the first disruption's round until every alive node has
  /// excluded the failed rack (-1 if n/a; hard rack faults only).
  std::int64_t dissemination_rounds = -1;
  Time detection_latency = Time::infinity();
  Time dissemination_latency = Time::infinity();
  /// Goodput transient around the first disruption (curve mode only).
  stats::RecoverySummary recovery;
};

/// Work the slot kernel did, counted exactly. The kernel is deterministic,
/// so these are as reproducible as the results; the golden tests pin them
/// to catch wasted work that leaves every result unchanged. They are
/// neither registry metrics nor part of checkpoint_state(), so the counts
/// cover only the slots this SiriusSim object ran: a restored sim starts
/// from zero.
struct WorkCounters {
  /// (node, uplink) pairs transmit_slot examined past the idle-pair skip.
  std::int64_t pairs_visited = 0;
  /// LOCAL flows Node::pending_cell_dsts scanned.
  std::int64_t flows_visited = 0;
  /// Slots the nodes' queue pools hold at the end of the run
  /// (Node::queue_slots summed): the queues' memory footprint, which grows
  /// with peak occupancy, not with node pairs. A restored sim's pools start
  /// from the restored cells.
  std::int64_t queue_slots = 0;
  /// Membership-view rows MembershipView::merge_from walked entry by entry
  /// (rows where the piggybacked view held a newer verdict). Zero without a
  /// dynamic fault plan.
  std::int64_t view_rows_merged = 0;
};

struct SiriusSimResult {
  stats::FctSummary fct;
  double goodput_normalized = 0.0;       ///< Fig. 9b metric
  double worst_node_queue_peak_kb = 0.0; ///< Fig. 10c metric (VQ+FQ bytes)
  double worst_reorder_peak_kb = 0.0;    ///< Fig. 10d metric (per flow)
  std::int64_t slots_simulated = 0;
  std::int64_t cells_delivered = 0;
  std::int64_t incomplete_flows = 0;
  /// Flows rejected because an endpoint rack was failed.
  std::int64_t rejected_flows = 0;
  Time sim_end;
  /// Completion time of every workload flow (Time::infinity() if it did
  /// not finish before the drain cap). Indexed by flow id.
  std::vector<Time> per_flow_completion;

  // Protocol/diagnostic counters (request/grant mode).
  std::int64_t requests_sent = 0;
  std::int64_t grants_issued = 0;
  std::int64_t grants_denied_q = 0;
  std::int64_t grants_released = 0;
  std::int64_t slots_tx_relay = 0;  ///< second-hop transmissions
  std::int64_t slots_tx_first = 0;  ///< first-hop transmissions

  FailoverStats failover;
  /// Goodput-vs-time curve (record_recovery_curve mode).
  std::vector<stats::RecoveryBin> recovery_curve;
  WorkCounters work;
};

/// Runs one Sirius experiment over `workload`. Flow endpoints in the
/// workload are servers; they are mapped onto racks by division.
class SiriusSim {
 public:
  SiriusSim(SiriusSimConfig cfg, const workload::Workload& workload);

  SiriusSimResult run();

  const sched::CyclicSchedule& schedule() const { return sched_; }
  /// The invariant auditors this sim registered (see src/check/).
  const check::AuditorRegistry& auditors() const { return auditors_; }

  // ---- checkpoint / restore (docs/OPERABILITY.md) ------------------------

  /// Serializes the complete mutable simulator state — slot cursor, RNG
  /// streams, schedule and swap bases, every node's queues and CC state,
  /// receive/reorder state, in-flight ring, retx timers, failover
  /// detectors, statistics and the telemetry registry/series — as a
  /// `sirius.ckpt.v1` payload (unframed; see ckpt::save for the file
  /// format). run() calls this at the checkpoint cadence, always at the
  /// top of a slot, where the cell ledger is consistent.
  [[nodiscard]] std::string checkpoint_state() const;
  /// Restores state serialized by checkpoint_state() into this sim, which
  /// must be constructed over the same geometry, knobs and workload
  /// (fingerprint-checked; seed and fault plan are deliberately outside
  /// the fingerprint so fork what-if continuations can vary them). On
  /// failure `*error` (if non-null) gets a diagnostic and the sim is not
  /// safe to run. Hostile payloads are rejected, never crash.
  [[nodiscard]] bool restore_state(std::string_view payload,
                                   std::string* error = nullptr);
  /// Fork divergence: deterministically re-seeds both RNG streams from
  /// `salt`, discarding the restored stream positions. Call after
  /// restore_state() to make N what-if continuations of one snapshot
  /// explore different futures.
  void reseed_streams(std::uint64_t salt);

 private:
  /// Receive state of one injected inter-rack flow. Records live by value
  /// in rx_flows_; the reorder bitmap is the words_for(total_cells) words
  /// of rx_words_ from `words_at`.
  struct RxFlow {
    node::ReorderBuffer reorder;
    std::size_t words_at = 0;
    Time completion = Time::infinity();
    bool aborted = false;  ///< an endpoint rack died; late cells are dropped
  };
  struct Arrival {
    node::Cell cell;
    NodeId to;
  };
  /// A retransmission timer armed when a cell's first-hop burst leaves
  /// the source; fires at a round boundary and resurrects the cell into
  /// the source's retx queue unless the receive path already has it (lazy
  /// invalidation via ReorderBuffer::received).
  struct RetxTimer {
    std::int64_t deadline_round = 0;
    node::Cell cell;
    NodeId src = 0;
  };
  /// Firing order of retransmission timers: by deadline, ties broken by
  /// (flow, seq), a key no two live timers share. The resurrection order
  /// feeds back into the request stream, so it must not depend on how the
  /// timers are stored.
  static bool timer_later(const RetxTimer& a, const RetxTimer& b);

  [[nodiscard]] NodeId rack_of(std::int32_t server) const {
    return server / cfg_.servers_per_rack;
  }
  /// The flow's receive record, or null before injection and for flows that
  /// never cross the core (intra-rack, rejected).
  [[nodiscard]] RxFlow* rx_of(FlowId flow) {
    const std::uint32_t i = rx_index_[static_cast<std::size_t>(flow)];
    return i == 0 ? nullptr : &rx_flows_[i - 1];
  }
  [[nodiscard]] std::span<std::uint64_t> pending_of(const RxFlow& rx) {
    return {rx_words_.data() + rx.words_at,
            node::ReorderBuffer::words_for(rx.reorder.total_cells())};
  }
  [[nodiscard]] std::span<const std::uint64_t> pending_of(
      const RxFlow& rx) const {
    return {rx_words_.data() + rx.words_at,
            node::ReorderBuffer::words_for(rx.reorder.total_cells())};
  }
  /// Appends a receive record for `flow` over `cells` cells with a zeroed
  /// bitmap.
  RxFlow& add_rx_flow(FlowId flow, std::int64_t cells);

  void serialize_state(ckpt::Writer& w) const;
  bool restore_state_impl(ckpt::Reader& r);
  void serialize_telemetry(ckpt::Writer& w) const;
  bool restore_telemetry(ckpt::Reader& r);
  /// FNV-1a over the geometry/knob fields that determine state layout and
  /// slot-loop behaviour, plus the workload. Seed, fault plan, telemetry,
  /// audit cadence and checkpoint cadence are excluded: those are the
  /// fields bisection and fork continuations legitimately override.
  [[nodiscard]] std::uint64_t state_fingerprint() const;

  void register_auditors();
  void bind_metrics();
  void update_gauges();
  void epoch_boundary(std::int64_t round, Time now);
  void inject_arrivals(Time now);
  void land_arrivals(std::int64_t slot, Time now);
  void transmit_slot(std::int64_t slot, Time now);
  void deliver(const node::Cell& cell, Time now);
  void finish_flow(FlowId flow, Time completion);

  // ---- §4.5 failover machinery (active only for dynamic fault plans) ----
  /// Burst observation at the receiver: miss/hit bookkeeping, link-down
  /// reports and piggybacked view merging. Returns true when the burst
  /// (and any data cell on it) is lost to a grey link.
  bool observe_burst(NodeId src, NodeId dst, std::int64_t round, Time now);
  /// All round-boundary failover work, in deterministic order: ground
  /// truth transitions, retransmission timeouts, view-driven exclusion
  /// sync, schedule swap, administrative rejoin, latency stats.
  void round_boundary_failover(std::int64_t round, std::int64_t slot, Time now);
  void apply_rack_death(NodeId rack, Time now);
  void sync_exclusions(NodeId observer, Time now);
  void expire_retx_timers(std::int64_t round, Time now);
  void swap_schedule(std::vector<NodeId> members, std::int64_t round,
                     std::int64_t slot);
  void rejoin_rack(NodeId rack, std::int64_t slot, std::int64_t round);
  void arm_retx_timer(const node::Cell& cell, NodeId src,
                      std::int64_t deadline_round);
  void abort_rx_flow(FlowId flow);
  [[nodiscard]] std::int32_t retx_timeout_rounds() const;
  /// The timer wheel's list for timers due in `round`.
  [[nodiscard]] std::size_t retx_list(std::int64_t round) const {
    return static_cast<std::size_t>(round % retx_span_);
  }
  [[nodiscard]] std::int64_t round_of_slot(std::int64_t slot) const {
    return rounds_base_ + (slot - round_base_slot_) / sched_.slots_per_round();
  }

  SiriusSimConfig cfg_;
  const workload::Workload& workload_;
  sched::CyclicSchedule sched_;
  Rng rng_;
  ///< grey-loss draws; separate stream so a fault plan does not perturb
  ///< the baseline RNG sequence
  Rng fault_rng_;

  std::vector<node::Node> nodes_;
  // Receive state: records in injection (= flow id) order, the 1-based
  // record of each flow id (0 = none), and every flow's reorder bitmap.
  std::vector<RxFlow> rx_flows_;
  std::vector<std::uint32_t> rx_index_;
  std::vector<std::uint64_t> rx_words_;
  // downlink serialisation
  std::vector<Time> server_free_;
  // ring buffer by slot
  std::vector<std::vector<Arrival>> in_flight_;
  std::int64_t prop_slots_;
  Time nic_cell_time_;
  // sched_'s peer map; rebuilt at construction, swap and restore, never
  // serialized.
  sched::PeerTable peer_table_;
  // Epoch-cc scratch, reused by every node every epoch; it also sums
  // WorkCounters::flows_visited.
  node::PendingScratch pending_scratch_;
  std::vector<NodeId> pending_;
  std::vector<cc::Grant> grants_;
  std::vector<cc::RequestGrantNode::OutgoingRequest> requests_;

  // next workload flow to inject
  std::size_t next_flow_ = 0;
  // not yet completed
  std::int64_t flows_remaining_;
  Time measure_end_;              // goodput window = [0, last arrival]

  stats::FctTracker fct_;
  stats::GoodputMeter goodput_;
  stats::OccupancyAggregator reorder_peaks_;
  std::vector<Time> completions_;
  check::AuditorRegistry auditors_;
  // schedule-relative slot for the permutation auditor
  std::int64_t audit_slot_ = 0;
  // Slot-loop cursor, a member (not a run() local) so a restored sim
  // resumes mid-run: run() continues from wherever the snapshot left it.
  std::int64_t slot_ = 0;
  // WorkCounters::pairs_visited; never serialized.
  std::int64_t pairs_visited_ = 0;
  // Size of the last payload checkpoint_state() wrote or restore_state()
  // read, so the next snapshot reserves its buffer once instead of growing
  // it by doubling; never serialized.
  mutable std::size_t ckpt_size_hint_ = 0;
  // state_fingerprint(), computed on first use: the fields it hashes and
  // the workload never change after construction; never serialized.
  mutable std::optional<std::uint64_t> fingerprint_;
  // Next simulated time the checkpoint sink fires at; derived (never
  // serialized): the smallest multiple of cfg_.checkpoint_every strictly
  // after the current slot's start reproduces the straight run's cadence.
  Time next_checkpoint_ = Time::infinity();

  // ---- telemetry spine --------------------------------------------------
  // The sim's cumulative statistics live as named counters in the hub's
  // registry (bound once in bind_metrics(), bumped through the pointers).
  // A null SiriusSimConfig::telemetry gets `own_hub_`, a disabled hub whose
  // registry still backs SiriusSimResult.
  std::unique_ptr<telemetry::Hub> own_hub_;
  telemetry::Hub* hub_ = nullptr;
  // cells out of any LOCAL buffer
  telemetry::Counter* c_injected_ = nullptr;
  telemetry::Counter* c_delivered_ = nullptr;
  telemetry::Counter* c_rejected_flows_ = nullptr;
  telemetry::Counter* c_requests_ = nullptr;
  telemetry::Counter* c_released_ = nullptr;
  telemetry::Counter* c_tx_first_ = nullptr;
  telemetry::Counter* c_tx_relay_ = nullptr;
  telemetry::Counter* c_dropped_ = nullptr;
  telemetry::Counter* c_retx_ = nullptr;
  telemetry::Counter* c_retx_abandoned_ = nullptr;
  telemetry::Counter* c_duplicates_ = nullptr;
  telemetry::Counter* c_flows_aborted_ = nullptr;
  telemetry::Counter* c_swaps_ = nullptr;
  telemetry::Gauge* g_flows_remaining_ = nullptr;
  telemetry::Gauge* g_queue_worst_kb_ = nullptr;
  telemetry::Gauge* g_retx_pending_ = nullptr;
  telemetry::Gauge* g_members_ = nullptr;
  telemetry::Gauge* g_requests_received_ = nullptr;
  telemetry::Gauge* g_grants_issued_ = nullptr;
  telemetry::Gauge* g_grants_denied_ = nullptr;
  telemetry::Gauge* g_detector_misses_ = nullptr;
  telemetry::Gauge* g_detector_declared_ = nullptr;
  Histogram* h_fct_us_ = nullptr;

  // ---- §4.5 failover state ----------------------------------------------
  // dynamic plan: in-band machinery on
  bool faults_active_ = false;
  // observers needed to convict a node
  std::int32_t quorum_ = 1;
  // earliest mid-run rack fault
  NodeId first_fault_rack_ = kInvalidNode;
  // per rack, detector state
  std::vector<ctrl::PeerHealth> health_;
  // per rack, piggybacked
  std::vector<ctrl::MembershipView> views_;
  // ground-truth rack status
  std::vector<std::uint8_t> truth_down_;
  // Retransmission timer wheel: a timer due in round r sits in list
  // r % retx_span_. The span exceeds the longest timeout any schedule of
  // the run can set, so every live timer in one list is due in the same
  // round, and a round boundary reads only its own list.
  node::PooledQueues<RetxTimer> retx_wheel_;
  std::int64_t retx_span_ = 1;
  std::int64_t retx_pending_ = 0;
  // expire_retx_timers scratch: the due timers whose cell is still missing.
  std::vector<RetxTimer> retx_due_;
  // Change-keyed exclusion sync: per node, the view revision and the
  // membership generation its last sync_exclusions saw. The generation
  // bumps at every schedule swap, rejoin and restore. Derived, never
  // serialized.
  std::vector<std::uint64_t> synced_revision_;
  std::vector<std::uint64_t> synced_generation_;
  std::uint64_t generation_ = 1;
  // WorkCounters::view_rows_merged; never serialized.
  std::int64_t view_rows_merged_ = 0;
  // first slot of the current schedule
  std::int64_t round_base_slot_ = 0;
  // rounds completed before that slot
  std::int64_t rounds_base_ = 0;
  std::unique_ptr<stats::RecoveryMeter> recovery_;
  FailoverStats fo_;
  // plan's first mid-run disruption
  Time fault_time_ = Time::infinity();
  // round containing fault_time_
  std::int64_t fault_round_ = -1;
  // first mid-run *rack* fault
  Time rack_fault_time_ = Time::infinity();
  // round containing rack_fault_time_
  std::int64_t rack_fault_round_ = -1;
  // first in-band link-down report
  std::int64_t detect_round_ = -1;
  Time detect_time_ = Time::infinity();
  // Largest flight-rounds value any schedule of this run has had; keeps the
  // queue-bound audit valid across swaps (a rejoin shrinks flight_rounds,
  // but cells granted under the old schedule may still be draining).
  std::int32_t audit_flight_rounds_ = 1;
};

}  // namespace sirius::sim
