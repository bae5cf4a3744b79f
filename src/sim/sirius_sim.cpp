#include "sim/sirius_sim.hpp"

#include <algorithm>
#include <cassert>

#include "common/invariant.hpp"
#include "node/node_audit.hpp"
#include "sched/schedule_audit.hpp"

namespace sirius::sim {

namespace {

// Fixed protocol and physical parameters of the §7 simulation.
//
// A source stops requesting an intermediate whose virtual queue already
// holds this many granted-but-unsent cells (bounds source-side backlog; the
// source knows its own queues, so this is free to implement).
constexpr std::int32_t kMaxVqDepth = 2;
// One-way node -> grating -> node propagation (datacenter span).
constexpr Time kPropagationDelay = Time::ns(500);
// Intra-rack forwarding latency through the electrical ToR.
constexpr Time kRackSwitchLatency = Time::ns(500);
// Safety cap: give up this many slots after the last flow arrival.
constexpr std::int64_t kMaxDrainSlots = 5'000'000;
// Retransmission attempts per cell before it is abandoned.
constexpr std::int32_t kRetryLimit = 16;
// Bin width of the goodput-vs-time recovery curve.
constexpr Time kRecoveryBin = Time::us(2);

// Alive member list for the initial schedule given the fault plan.
std::vector<NodeId> initial_members(const ctrl::FaultPlan& plan,
                                    std::int32_t racks) {
  std::vector<bool> down(static_cast<std::size_t>(racks), false);
  for (const NodeId f : plan.down_at_start()) {
    if (f >= 0 && f < racks) down[static_cast<std::size_t>(f)] = true;
  }
  std::vector<NodeId> alive;
  alive.reserve(static_cast<std::size_t>(racks));
  for (NodeId n = 0; n < racks; ++n) {
    if (!down[static_cast<std::size_t>(n)]) alive.push_back(n);
  }
  return alive;
}

// Goodput considered "recovered" at this fraction of the pre-fault
// baseline (FailoverStats::recovery).
constexpr double kRecoverFrac = 0.95;

// ---- checkpoint section markers (sirius.ckpt.v1 payload layout) ----------
// Each top-level section opens with a 4-byte tag so a writer/reader layout
// mismatch reports the section name instead of silently misparsing.
constexpr std::uint32_t kTagMeta = 0x4154454du;       // "META"
constexpr std::uint32_t kTagRng = 0x53474e52u;        // "RNGS"
constexpr std::uint32_t kTagSched = 0x44484353u;      // "SCHD"
constexpr std::uint32_t kTagNodes = 0x45444f4eu;      // "NODE"
constexpr std::uint32_t kTagRx = 0x46425852u;         // "RXBF"
constexpr std::uint32_t kTagWire = 0x45524957u;       // "WIRE"
constexpr std::uint32_t kTagStats = 0x54415453u;      // "STAT"
constexpr std::uint32_t kTagFailover = 0x4f4c4146u;   // "FALO"
constexpr std::uint32_t kTagTelemetry = 0x454c4554u;  // "TELE"
constexpr std::uint32_t kTagEnd = 0x21444e45u;        // "END!"

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

// The first round boundary at or after `slot`, for a schedule whose rounds
// of `spr` slots started at `base_slot` with round `base_round`. A run
// resuming at `slot` fires that round's retransmission timers first (a
// checkpoint precedes its slot's round work).
std::int64_t first_round_from(std::int64_t slot, std::int64_t base_slot,
                              std::int64_t base_round, std::int64_t spr) {
  const std::int64_t rel = slot - base_slot;
  return base_round + rel / spr + (rel % spr != 0 ? 1 : 0);
}

}  // namespace

bool SiriusSim::timer_later(const RetxTimer& a, const RetxTimer& b) {
  if (a.deadline_round != b.deadline_round) {
    return a.deadline_round > b.deadline_round;
  }
  if (a.cell.flow != b.cell.flow) return a.cell.flow > b.cell.flow;
  return a.cell.seq > b.cell.seq;
}

SiriusSim::SiriusSim(SiriusSimConfig cfg, const workload::Workload& workload)
    : cfg_(cfg),
      workload_(workload),
      sched_(initial_members(cfg_.faults, cfg_.racks), cfg_.uplinks()),
      rng_(cfg.seed ^ 0x5349524955u),
      // Separate stream for the plan's Bernoulli draws: an empty plan must
      // leave the baseline RNG sequence — and hence every baseline result —
      // bit-identical.
      fault_rng_(cfg.seed ^ 0x4641554C54ull),
      goodput_(cfg.servers(), cfg.server_share()) {
  hub_ = cfg_.telemetry;
  if (hub_ == nullptr) {
    own_hub_ = std::make_unique<telemetry::Hub>();
    hub_ = own_hub_.get();
  }
  hub_->attach_nodes(cfg_.racks);
  bind_metrics();
  SIRIUS_INVARIANT(workload_.servers == cfg_.servers(),
                   "workload generated for %d servers, config has %d",
                   workload_.servers, cfg_.servers());
  const auto plan_error = cfg_.faults.validate(cfg_.racks);
  SIRIUS_INVARIANT(plan_error == std::nullopt, "invalid fault plan: %s",
                   plan_error ? plan_error->c_str() : "");
  if (plan_error) cfg_.faults = ctrl::FaultPlan{};

  faults_active_ = cfg_.faults.dynamic();
  SIRIUS_INVARIANT(!faults_active_ || cfg_.routing == RoutingMode::kValiant,
                   "dynamic fault plans need the request/grant Valiant mode "
                   "(in-band detection rides on its schedule bursts)");
  if (cfg_.routing != RoutingMode::kValiant) faults_active_ = false;

  const cc::RequestGrantConfig cc_cfg{cfg_.racks, cfg_.queue_limit,
                                     cfg_.spread};
  const auto down0 = cfg_.faults.down_at_start();
  nodes_.reserve(static_cast<std::size_t>(cfg_.racks));
  for (NodeId n = 0; n < cfg_.racks; ++n) {
    nodes_.emplace_back(n, cc_cfg, cfg_.slots.cell_size());
    for (const NodeId f : down0) {
      nodes_.back().cc().exclude(f);
    }
  }
  rx_index_.assign(workload_.flows.size(), 0);
  // Room for a receive record per flow in one allocation: its pages stay
  // untouched until injection fills them, and the run never pays a
  // doubling copy, whose old and new blocks would both count in peak RSS.
  rx_flows_.reserve(workload_.flows.size());
  server_free_.assign(static_cast<std::size_t>(cfg_.servers()), Time::zero());

  prop_slots_ = std::max<std::int64_t>(
      1, (kPropagationDelay + cfg_.slots.slot_duration() - Time::ps(1)) /
             cfg_.slots.slot_duration());
  in_flight_.resize(static_cast<std::size_t>(prop_slots_) + 1);
  peer_table_.build(sched_, cfg_.racks);
  grants_.reserve(static_cast<std::size_t>(cfg_.racks));
  requests_.reserve(static_cast<std::size_t>(cfg_.racks));
  pending_.reserve(static_cast<std::size_t>(cfg_.racks));
  audit_flight_rounds_ = static_cast<std::int32_t>(
      (prop_slots_ + sched_.slots_per_round() - 1) / sched_.slots_per_round());

  nic_cell_time_ = cfg_.server_nic.transmission_time(cfg_.slots.cell_size());
  flows_remaining_ = static_cast<std::int64_t>(workload_.flows.size());
  measure_end_ = workload_.last_arrival();
  completions_.assign(workload_.flows.size(), Time::infinity());

  if (faults_active_) {
    // Distinct observers whose reports convict a node as down, so one
    // locally-grey link cannot evict a healthy rack.
    quorum_ = std::max<std::int32_t>(
        1, std::min<std::int32_t>(std::max<std::int32_t>(2, cfg_.racks / 4),
                                  cfg_.racks - 1));
    health_.reserve(static_cast<std::size_t>(cfg_.racks));
    views_.reserve(static_cast<std::size_t>(cfg_.racks));
    for (NodeId n = 0; n < cfg_.racks; ++n) {
      health_.emplace_back(cfg_.racks, kMissThreshold);
      views_.emplace_back(cfg_.racks, n, quorum_);
    }
    truth_down_.assign(static_cast<std::size_t>(cfg_.racks), 0);
    // Flight rounds never exceed prop_slots_ (a round has at least one
    // slot), so no schedule's retx_timeout_rounds() reaches the span.
    retx_span_ = 3 * prop_slots_ + cfg_.queue_limit + kMissThreshold + 7;
    retx_wheel_ = node::PooledQueues<RetxTimer>(
        static_cast<std::size_t>(retx_span_));
    synced_revision_.assign(static_cast<std::size_t>(cfg_.racks), 0);
    synced_generation_.assign(static_cast<std::size_t>(cfg_.racks), 0);
    for (const NodeId f : down0) {
      truth_down_[static_cast<std::size_t>(f)] = 1;
    }
    fault_time_ = cfg_.faults.first_disruption();
    for (const auto& f : cfg_.faults.rack_faults()) {
      if (f.at > Time::zero() && f.at < rack_fault_time_) {
        rack_fault_time_ = f.at;
        first_fault_rack_ = f.rack;
      }
    }
  }
  if (cfg_.record_recovery_curve) {
    recovery_ = std::make_unique<stats::RecoveryMeter>(
        cfg_.servers(), cfg_.server_share(), kRecoveryBin);
  }
  // First checkpoint at the first slot-top at or after one cadence period
  // (a t = 0 snapshot would just duplicate the constructor).
  if (cfg_.checkpoint_every > Time::zero()) {
    next_checkpoint_ = cfg_.checkpoint_every;
  }
  register_auditors();
}

std::int32_t SiriusSim::retx_timeout_rounds() const {
  // Rounds a source waits, counted from the cell's first-hop transmission,
  // before assuming the cell was lost and retransmitting it. The timer is
  // armed when the cell's first-hop burst leaves the source (see
  // transmit_slot), so the worst legitimate remaining path is: fly,
  // wait out the relay queue (up to Q + flight cells ahead — the audited
  // bound — at one (intermediate, dst) slot per round), fly again — plus
  // slack for epoch phase alignment. Anything slower was lost. Arming at
  // transmission rather than at grant matters: relay traffic has strict
  // priority over granted first-hop cells, so the virtual-queue wait is
  // load-dependent and unbounded — a grant-time timer would fire on cells
  // the source has not even sent yet.
  const auto spr = sched_.slots_per_round();
  const auto flight = static_cast<std::int32_t>((prop_slots_ + spr - 1) / spr);
  return 3 * flight + cfg_.queue_limit + kMissThreshold + 6;
}

void SiriusSim::bind_metrics() {
  telemetry::MetricsRegistry& m = hub_->metrics();
  c_injected_ = &m.counter("sim.cells_injected");
  c_delivered_ = &m.counter("sim.cells_delivered");
  c_rejected_flows_ = &m.counter("sim.flows_rejected");
  c_tx_first_ = &m.counter("sim.tx_first");
  c_tx_relay_ = &m.counter("sim.tx_relay");
  c_requests_ = &m.counter("cc.requests_sent");
  c_released_ = &m.counter("cc.grants_released");
  c_dropped_ = &m.counter("failover.cells_dropped");
  c_retx_ = &m.counter("failover.cells_retransmitted");
  c_retx_abandoned_ = &m.counter("failover.retx_abandoned");
  c_duplicates_ = &m.counter("failover.duplicates_discarded");
  c_flows_aborted_ = &m.counter("failover.flows_aborted");
  c_swaps_ = &m.counter("failover.schedule_swaps");
  g_flows_remaining_ = &m.gauge("sim.flows_remaining");
  g_queue_worst_kb_ = &m.gauge("queues.worst_kb");
  g_retx_pending_ = &m.gauge("retx.pending");
  g_members_ = &m.gauge("sched.members");
  g_requests_received_ = &m.gauge("cc.requests_received");
  g_grants_issued_ = &m.gauge("cc.grants_issued");
  g_grants_denied_ = &m.gauge("cc.grants_denied_q");
  g_detector_misses_ = &m.gauge("detector.misses_total");
  g_detector_declared_ = &m.gauge("detector.declarations_total");
  h_fct_us_ = &m.histogram("flow.fct_us", 0.0, 50'000.0, 500);
}

void SiriusSim::update_gauges() {
  g_flows_remaining_->set(static_cast<double>(flows_remaining_));
  double worst_kb = 0.0;
  std::int64_t req_rx = 0;
  std::int64_t grants = 0;
  std::int64_t denied = 0;
  for (const auto& n : nodes_) {
    worst_kb = std::max(worst_kb, n.current_queue().in_kb());
    req_rx += n.cc().stat_requests_received();
    grants += n.cc().stat_grants_issued();
    denied += n.cc().stat_denied_queue_bound();
  }
  g_queue_worst_kb_->set(worst_kb);
  g_retx_pending_->set(static_cast<double>(retx_pending_));
  g_members_->set(static_cast<double>(sched_.nodes()));
  g_requests_received_->set(static_cast<double>(req_rx));
  g_grants_issued_->set(static_cast<double>(grants));
  g_grants_denied_->set(static_cast<double>(denied));
  std::int64_t det_misses = 0;
  std::int64_t det_declared = 0;
  for (const auto& h : health_) {
    det_misses += h.stat_misses();
    det_declared += h.stat_declarations();
  }
  g_detector_misses_->set(static_cast<double>(det_misses));
  g_detector_declared_->set(static_cast<double>(det_declared));
}

void SiriusSim::register_auditors() {
  // Per-slot contention-freeness of the static schedule (§4.2): the tx map
  // must be a partial permutation and peer_rx its inverse. The audited slot
  // is schedule-relative (a swap restarts the round phase).
  auditors_.register_auditor(
      "schedule-permutation",
      [this, scratch = sched::PermutationScratch{}]() mutable {
        sched::audit_slot_permutation(sched_, audit_slot_, scratch);
      });

  // The §4.3 queue bound. The grant accounting releases a token when the
  // granted cell is *transmitted* (see transmit_slot), so between transmit
  // and landing a cell is neither outstanding nor queued: the audited bound
  // is Q plus the number of granted cells a fiber flight can overlap
  // (ceil(prop_slots / slots_per_round) rounds, one grant per dst each),
  // taken over every schedule this run has used (see audit_flight_rounds_).
  if (cfg_.routing == RoutingMode::kValiant) {
    auditors_.register_auditor("queue-bound", [this] {
      const std::int32_t bound = cfg_.queue_limit + audit_flight_rounds_ + 1;
      for (const auto& n : nodes_) {
        node::audit_queue_bound(n, cfg_.queue_limit, bound);
      }
    });
  }

  // Each node's occupancy bitmap — what transmit consults to skip idle
  // pairs — agrees with its queues.
  auditors_.register_auditor("queue-occupancy", [this] {
    for (const auto& n : nodes_) node::audit_occupancy(n);
  });

  // Cell conservation: everything taken out of a LOCAL buffer is delivered,
  // sitting in a VQ/FQ/retx queue, on the wire, or explicitly dropped by
  // the failover path (dead-rack purges, grey losses, relay refusals,
  // discarded duplicates). A fault-free run must audit with dropped == 0.
  auditors_.register_auditor("cell-conservation", [this] {
    std::int64_t queued = 0;
    for (const auto& n : nodes_) {
      for (NodeId d = 0; d < cfg_.racks; ++d) {
        queued += n.vq_depth(d) + n.fq_depth(d);
      }
      queued += n.retx_total();
    }
    std::int64_t flying = 0;
    for (const auto& bucket : in_flight_) {
      flying += static_cast<std::int64_t>(bucket.size());
    }
    check::audit_cell_conservation(c_injected_->value(),
                                   c_delivered_->value(), queued, flying,
                                   c_dropped_->value());
  });

  // Reorder buffers of in-progress flows stay structurally consistent.
  auditors_.register_auditor("reorder-buffers", [this] {
    for (const RxFlow& rx : rx_flows_) {
      if (!rx.reorder.complete()) node::audit_reorder(rx.reorder);
    }
  });
}

void SiriusSim::finish_flow(FlowId flow, Time completion) {
  const auto& f = workload_.flows[static_cast<std::size_t>(flow)];
  fct_.record(f.size, completion - f.arrival);
  if (hub_->metrics_enabled()) {
    h_fct_us_->add((completion - f.arrival).to_us());
  }
  completions_[static_cast<std::size_t>(flow)] = completion;
  --flows_remaining_;
}

SiriusSim::RxFlow& SiriusSim::add_rx_flow(FlowId flow, std::int64_t cells) {
  RxFlow& rx = rx_flows_.emplace_back();
  rx.reorder = node::ReorderBuffer(cells);
  rx.words_at = rx_words_.size();
  rx_words_.resize(rx_words_.size() + node::ReorderBuffer::words_for(cells));
  rx_index_[static_cast<std::size_t>(flow)] =
      static_cast<std::uint32_t>(rx_flows_.size());
  return rx;
}

void SiriusSim::abort_rx_flow(FlowId flow) {
  RxFlow* rx = rx_of(flow);
  if (rx == nullptr || rx->aborted || rx->reorder.complete()) return;
  rx->aborted = true;
  c_flows_aborted_->inc();
  --flows_remaining_;
}

void SiriusSim::deliver(const node::Cell& cell, Time now) {
  // Nested under kTransmit (direct delivery) or kLandInject (fiber
  // landing): the attribution tree shows which path delivery cost rides.
  SIRIUS_PROFILE_SCOPE(hub_->profiler(), telemetry::ProfScope::kDeliver);
  RxFlow* rxp = rx_of(cell.flow);
  SIRIUS_INVARIANT(rxp != nullptr, "cell delivered for unknown flow %lld",
                   static_cast<long long>(cell.flow));
  if (rxp == nullptr) return;
  RxFlow& rx = *rxp;
  if (faults_active_) {
    if (rx.aborted) {
      // An endpoint rack died; the flow is accounted as aborted and every
      // straggler cell is an explicit drop.
      c_dropped_->inc();
      SIRIUS_CELL_EVENT(hub_, telemetry::CellEvent::kDrop, now, cell.dst_node,
                        kInvalidNode, cell.dst_node, cell.flow, cell.seq);
      return;
    }
    if (rx.reorder.received(pending_of(rx), cell.seq)) {
      // The original made it after all: the retransmitted copy is spurious.
      c_duplicates_->inc();
      c_dropped_->inc();
      SIRIUS_CELL_EVENT(hub_, telemetry::CellEvent::kDrop, now, cell.dst_node,
                        kInvalidNode, cell.dst_node, cell.flow, cell.seq);
      return;
    }
  }

  // Serialise onto the destination server's downlink.
  Time& free = server_free_[static_cast<std::size_t>(cell.dst_server)];
  const Time delivered_at = std::max(now, free) + nic_cell_time_;
  free = delivered_at;

  if (delivered_at <= measure_end_) {
    goodput_.deliver(DataSize::bytes(cell.payload_bytes));
  }
  if (recovery_) {
    recovery_->deliver(delivered_at, DataSize::bytes(cell.payload_bytes));
  }
  c_delivered_->inc();
  SIRIUS_CELL_EVENT(hub_, telemetry::CellEvent::kDeliver, delivered_at,
                    cell.dst_node, kInvalidNode, cell.dst_node, cell.flow,
                    cell.seq);

  rx.reorder.on_arrival(pending_of(rx), cell.seq, cell.payload_bytes);
  if (rx.reorder.complete() && rx.completion.is_infinite()) {
    rx.completion = delivered_at;
    reorder_peaks_.observe_peak(rx.reorder.peak_buffered());
    finish_flow(cell.flow, delivered_at);
  }
}

void SiriusSim::inject_arrivals(Time now) {
  const Time slot_end = now + cfg_.slots.slot_duration();
  while (next_flow_ < workload_.flows.size() &&
         workload_.flows[next_flow_].arrival < slot_end) {
    const workload::Flow& f = workload_.flows[next_flow_];
    const NodeId src_rack = rack_of(f.src_server);
    const NodeId dst_rack = rack_of(f.dst_server);
    const std::int64_t cells = node::cells_for(f.size, cfg_.slots.cell_size());

    // An endpoint rack is down — either out of the schedule already, or
    // fail-stopped but not yet swapped out (its servers are physically
    // dead, so no new flow can start; this is the one place the data plane
    // reads ground truth, and it models the servers, not the fabric). §4.5:
    // the blast radius of a failure is its own servers plus a 1/N
    // bandwidth loss for everyone else.
    const bool endpoint_dead =
        faults_active_ && (truth_down_[static_cast<std::size_t>(src_rack)] !=
                               0 ||
                           truth_down_[static_cast<std::size_t>(dst_rack)] !=
                               0);
    if (!sched_.is_member(src_rack) || !sched_.is_member(dst_rack) ||
        endpoint_dead) {
      c_rejected_flows_->inc();
      --flows_remaining_;
      ++next_flow_;
      continue;
    }
    if (src_rack == dst_rack) {
      // Intra-rack traffic never touches the optical core (§4.2): it is
      // switched locally by the electrical ToR at server line rate.
      const Time completion = f.arrival +
                              cfg_.server_nic.transmission_time(f.size) +
                              kRackSwitchLatency;
      if (completion <= measure_end_) goodput_.deliver(f.size);
      if (recovery_) recovery_->deliver(completion, f.size);
      finish_flow(f.id, completion);
    } else {
      node::LocalFlow lf;
      lf.id = f.id;
      lf.dst_node = dst_rack;
      lf.src_server = f.src_server;
      lf.dst_server = f.dst_server;
      lf.size = f.size;
      lf.arrival = f.arrival;
      lf.total_cells = cells;
      nodes_[static_cast<std::size_t>(src_rack)].add_flow(lf);
      add_rx_flow(f.id, cells);
    }
    ++next_flow_;
  }
}

void SiriusSim::epoch_boundary(std::int64_t round, Time now) {
  // No request/grant round in the idealised mode, and none needed for
  // direct-only routing (each pair owns its slot outright).
  if (cfg_.routing != RoutingMode::kValiant) return;

  const auto skip_node = [this](NodeId n) {
    return faults_active_ && (truth_down_[static_cast<std::size_t>(n)] != 0 ||
                              !sched_.is_member(n));
  };

  // Phase A — every node, acting as intermediate, turns the requests it
  // received during the previous epoch into grants (bounded by Q).
  // Phase B — grants move cells from LOCAL into the per-intermediate
  // virtual queues (or are released if the cell already left).
  for (auto& inter : nodes_) {
    if (skip_node(inter.self())) continue;
    inter.cc().issue_grants(
        [&inter](NodeId dst) { return inter.fq_depth(dst); }, rng_, &grants_);
    for (const cc::Grant& g : grants_) {
      SIRIUS_CELL_EVENT(hub_, telemetry::CellEvent::kGrant, now,
                        g.intermediate, g.to, g.dst, FlowId{-1}, -1);
      if (faults_active_ && truth_down_[static_cast<std::size_t>(g.to)] != 0) {
        // The grant burst towards a fail-stopped source is lost. The real
        // protocol would leak this outstanding token until a grant timeout;
        // we settle it at issue so the short pre-conviction window (the
        // detector excludes the source within miss_threshold rounds) stays
        // out of the ledger.
        inter.cc().on_grant_release(g.dst);
        c_released_->inc();
        continue;
      }
      auto& src = nodes_[static_cast<std::size_t>(g.to)];
      const bool from_retx =
          src.retx_total() > 0 && src.retx_depth(g.dst) > 0;
      auto cell = src.take_cell_for(g.dst, now, nic_cell_time_);
      if (cell.has_value()) {
        // Retransmitted cells re-entered the ledger when they were
        // resurrected (expire_retx_timers); only fresh LOCAL cells are new
        // injections.
        if (!from_retx) {
          c_injected_->inc();
          SIRIUS_CELL_EVENT(hub_, telemetry::CellEvent::kInject, now, g.to,
                            g.intermediate, cell->dst_node, cell->flow,
                            cell->seq);
        }
        src.push_vq(g.intermediate, *cell);
      } else {
        inter.cc().on_grant_release(g.dst);
        c_released_->inc();
      }
    }
  }

  // Phase C — every node emits this epoch's requests from LOCAL (and from
  // its retransmission queue, which pending_cell_dsts lists first).
  const auto limit = static_cast<std::size_t>(cfg_.racks - 1);
  for (auto& src : nodes_) {
    if (skip_node(src.self())) continue;
    if (!src.has_unfinished_flows() && src.retx_total() == 0) continue;
    src.pending_cell_dsts(now, nic_cell_time_, limit, &pending_scratch_,
                          &pending_);
    const NodeId s = src.self();
    const auto vq_has_room = [&src](NodeId i) {
      return src.vq_depth(i) < kMaxVqDepth;
    };
    // A view with no lost link vetoes nothing.
    const bool may_veto =
        faults_active_ && views_[static_cast<std::size_t>(s)].any_link_down();
    const auto relay_ok = [this, s, may_veto](NodeId inter, NodeId dst) {
      if (!may_veto) return true;
      const auto& view = views_[static_cast<std::size_t>(s)];
      // Veto a relay whose link towards dst is reported lost (the cell
      // would blackhole on the second hop), and one this source cannot
      // reach itself (first hop; link_down(x, y) is x's verdict about
      // the directed link y -> x).
      return !view.link_down(dst, inter) && !view.link_down(inter, s);
    };
    src.cc().build_requests(pending_, round, rng_, vq_has_room, relay_ok,
                            &requests_);
    for (const auto& req : requests_) {
      c_requests_->inc();
      SIRIUS_CELL_EVENT(hub_, telemetry::CellEvent::kRequest, now, s,
                        req.intermediate, req.dst, FlowId{-1}, -1);
      if (faults_active_ &&
          (truth_down_[static_cast<std::size_t>(req.intermediate)] != 0 ||
           !sched_.is_member(req.intermediate))) {
        continue;  // the request burst lands on a dead receiver
      }
      nodes_[static_cast<std::size_t>(req.intermediate)]
          .cc()
          .receive_request(cc::Request{s, req.dst});
    }
  }
}

void SiriusSim::land_arrivals(std::int64_t slot, Time now) {
  auto& bucket = in_flight_[static_cast<std::size_t>(
      slot % static_cast<std::int64_t>(in_flight_.size()))];
  for (const Arrival& a : bucket) {
    if (faults_active_) {
      if (truth_down_[static_cast<std::size_t>(a.to)] != 0 ||
          !sched_.is_member(a.to)) {
        // The receiver fail-stopped (or was deprovisioned) while the cell
        // was on the fiber.
        c_dropped_->inc();
        SIRIUS_CELL_EVENT(hub_, telemetry::CellEvent::kDrop, now, a.to,
                          kInvalidNode, a.cell.dst_node, a.cell.flow,
                          a.cell.seq);
        continue;
      }
      if (a.cell.dst_node != a.to &&
          (!sched_.is_member(a.cell.dst_node) ||
           nodes_[static_cast<std::size_t>(a.to)].cc().is_excluded(
               a.cell.dst_node))) {
        // Relay refusal: this intermediate believes the destination is
        // gone, so queueing the cell would blackhole it. The source's
        // retransmission timer (or flow abort) owns recovery.
        c_dropped_->inc();
        SIRIUS_CELL_EVENT(hub_, telemetry::CellEvent::kDrop, now, a.to,
                          kInvalidNode, a.cell.dst_node, a.cell.flow,
                          a.cell.seq);
        continue;
      }
    }
    if (a.cell.dst_node == a.to) {
      // Reached its destination (second hop, or a lucky direct first hop).
      deliver(a.cell, now);
    } else {
      // First hop into an intermediate: enqueue for relaying. The grant
      // accounting was already settled at transmission time (see
      // transmit_slot): in-flight cells are on the wire, not in the queue
      // that Q bounds.
      nodes_[static_cast<std::size_t>(a.to)].push_fq(a.cell.dst_node, a.cell);
      SIRIUS_CELL_EVENT(hub_, telemetry::CellEvent::kRelayEnqueue, now, a.to,
                        kInvalidNode, a.cell.dst_node, a.cell.flow,
                        a.cell.seq);
    }
  }
  bucket.clear();
}

bool SiriusSim::observe_burst(NodeId src, NodeId dst, std::int64_t round,
                              Time now) {
  // Called for every scheduled (src -> dst) burst with a live member
  // receiver. The burst is lost when the transmitter is fail-stopped, or
  // to a grey-link Bernoulli draw. Either way the receiver's detector sees
  // only presence/absence — §4.5 probe-less detection.
  bool lost = truth_down_[static_cast<std::size_t>(src)] != 0;
  if (!lost && cfg_.faults.link_ever_grey(src, dst)) {
    const double p = cfg_.faults.link_loss(src, dst, now);
    lost = p > 0.0 && fault_rng_.chance(p);
  }
  auto& view = views_[static_cast<std::size_t>(dst)];
  if (lost) {
    if (health_[static_cast<std::size_t>(dst)].record_miss(src)) {
      view.report_link(src, true);
      if (detect_round_ < 0) {
        detect_round_ = round;
        detect_time_ = now;
      }
    }
  } else {
    health_[static_cast<std::size_t>(dst)].record_hit(src);
    if (view.link_down(dst, src)) view.report_link(src, false);
    // Every heard burst piggybacks the transmitter's membership view.
    view.merge_from(views_[static_cast<std::size_t>(src)], &view_rows_merged_);
  }
  return lost;
}

void SiriusSim::transmit_slot(std::int64_t slot, Time now) {
  const auto land_slot = static_cast<std::size_t>(
      (slot + prop_slots_) % static_cast<std::int64_t>(in_flight_.size()));
  // The schedule phase restarts at every swap, so peers are looked up at
  // the schedule-relative slot.
  const std::int64_t rel = slot - round_base_slot_;
  const std::int64_t round = round_of_slot(slot);
  const UplinkId uplinks = peer_table_.uplinks();
  const NodeId* peers = peer_table_.row(rel);
  // A request/grant Valiant transmit sends only from a peer's FQ or VQ, so
  // a pair whose occupancy bit is clear has nothing to do. Every other
  // mode visits each scheduled pair: ideal spraying and direct routing
  // draw from LOCAL, and the §4.5 detector must observe every burst (its
  // grey-loss draws come from fault_rng_).
  const bool skip_idle =
      cfg_.routing == RoutingMode::kValiant && !faults_active_;
  const std::int64_t retx_deadline =
      faults_active_ ? round + retx_timeout_rounds() : 0;
  for (NodeId s = 0; s < cfg_.racks; ++s, peers += uplinks) {
    auto& n = nodes_[static_cast<std::size_t>(s)];
    for (UplinkId u = 0; u < uplinks; ++u) {
      const NodeId p = peers[u];
      if (p == kInvalidNode) continue;
      if (skip_idle && !n.occupied(p)) continue;
      ++pairs_visited_;
      if (cfg_.routing == RoutingMode::kDirect) {
        // Direct-only: pull the next pending cell addressed to p, if any.
        if (auto cell = n.take_cell_for(p, now, nic_cell_time_)) {
          c_injected_->inc();
          in_flight_[land_slot].push_back(Arrival{*cell, p});
          c_tx_first_->inc();
          SIRIUS_CELL_EVENT(hub_, telemetry::CellEvent::kFirstHopTx, now, s,
                            p, cell->dst_node, cell->flow, cell->seq);
        }
        continue;
      }
      bool lost = false;
      bool p_dead = false;
      if (faults_active_) {
        p_dead = truth_down_[static_cast<std::size_t>(p)] != 0;
        if (truth_down_[static_cast<std::size_t>(s)] != 0) {
          // Dead transmitter: the expected burst never arrives; the live
          // receiver records the miss — the §4.5 detection signal.
          if (!p_dead) observe_burst(s, p, round, now);
          continue;
        }
        // A dead receiver observes nothing (its cell is launched into the
        // fiber regardless and dropped on landing).
        if (!p_dead) lost = observe_burst(s, p, round, now);
      }
      // Relay traffic first: it is older and its queue bound must drain.
      if (auto cell = n.pop_fq(p)) {
        if (lost) {
          c_dropped_->inc();
          SIRIUS_CELL_EVENT(hub_, telemetry::CellEvent::kDrop, now, s, p,
                            cell->dst_node, cell->flow, cell->seq);
        } else {
          in_flight_[land_slot].push_back(Arrival{*cell, p});
          c_tx_relay_->inc();
          SIRIUS_CELL_EVENT(hub_, telemetry::CellEvent::kRelayDequeue, now, s,
                            p, cell->dst_node, cell->flow, cell->seq);
        }
        continue;
      }
      if (cfg_.routing == RoutingMode::kIdeal) {
        if (auto cell = n.take_any_cell(now, nic_cell_time_)) {
          c_injected_->inc();
          in_flight_[land_slot].push_back(Arrival{*cell, p});
          SIRIUS_CELL_EVENT(hub_, telemetry::CellEvent::kFirstHopTx, now, s,
                            p, cell->dst_node, cell->flow, cell->seq);
        }
      } else if (auto cell = n.pop_vq(p)) {
        // The retransmission timer starts now — when the cell leaves the
        // source's possession — not at grant time: a granted cell can
        // legitimately starve in the virtual queue behind prioritised
        // relay traffic for an unbounded, load-dependent time, and the
        // source would never retransmit a cell it still holds anyway.
        if (faults_active_) arm_retx_timer(*cell, s, retx_deadline);
        // The granted cell is now on the wire towards intermediate p with a
        // deterministic arrival slot, so p's grant accounting can release
        // the outstanding slot immediately (the schedule guarantees p will
        // relay it no sooner than its own (p, dst) slot anyway). Keeping
        // outstanding held for the full fiber flight would turn Q into a
        // bandwidth-delay-product cap at small slot sizes. A fail-stopped
        // p's accounting was wiped with the rack, so there is nothing to
        // settle there; a grey-lost cell still settles — the token was
        // consumed at transmission either way.
        if (!p_dead) {
          nodes_[static_cast<std::size_t>(p)].cc().on_granted_cell_arrival(
              cell->dst_node);
        }
        if (lost) {
          c_dropped_->inc();
          SIRIUS_CELL_EVENT(hub_, telemetry::CellEvent::kDrop, now, s, p,
                            cell->dst_node, cell->flow, cell->seq);
        } else {
          in_flight_[land_slot].push_back(Arrival{*cell, p});
          c_tx_first_->inc();
          SIRIUS_CELL_EVENT(hub_, telemetry::CellEvent::kFirstHopTx, now, s,
                            p, cell->dst_node, cell->flow, cell->seq);
        }
      }
    }
  }
}

void SiriusSim::arm_retx_timer(const node::Cell& cell, NodeId src,
                               std::int64_t deadline_round) {
  // Every first-hop transmission of a dynamic-plan run arms one; the
  // wheel's pool reuses the slots its fired timers freed.
  retx_wheel_.push(retx_list(deadline_round),
                   RetxTimer{deadline_round, cell, src});
  ++retx_pending_;
}

void SiriusSim::expire_retx_timers(std::int64_t round, Time now) {
  // Every timer in this round's list is due now. Most cells arrived: keep
  // only the missing ones, then fire those in (flow, seq) order — the
  // deadline is common to all of them.
  const std::size_t list = retx_list(round);
  retx_due_.clear();
  retx_wheel_.for_each(list, [this, round](const RetxTimer& t) {
    SIRIUS_INVARIANT(t.deadline_round == round,
                     "retransmission timer due in round %lld found in round "
                     "%lld's wheel list",
                     static_cast<long long>(t.deadline_round),
                     static_cast<long long>(round));
    const RxFlow* rx = rx_of(t.cell.flow);
    if (rx != nullptr && !rx->aborted && !rx->reorder.complete() &&
        !rx->reorder.received(pending_of(*rx), t.cell.seq)) {
      retx_due_.push_back(t);
    }
  });
  retx_pending_ -= static_cast<std::int64_t>(retx_wheel_.size(list));
  retx_wheel_.clear(list);
  std::sort(retx_due_.begin(), retx_due_.end(),
            [](const RetxTimer& a, const RetxTimer& b) {
              return timer_later(b, a);
            });
  for (const RetxTimer& t : retx_due_) {
    // Checked again: firing an earlier timer can abort this one's flow.
    const RxFlow* rx = rx_of(t.cell.flow);
    if (rx == nullptr || rx->aborted || rx->reorder.complete() ||
        rx->reorder.received(pending_of(*rx), t.cell.seq)) {
      continue;  // the cell made it after all, or nobody is waiting
    }
    if (truth_down_[static_cast<std::size_t>(t.src)] != 0 ||
        !sched_.is_member(t.src)) {
      continue;  // the source is gone; the flow-abort path owns this flow
    }
    if (t.cell.retries >= kRetryLimit) {
      // Give up: the flow cannot complete without this cell.
      c_retx_abandoned_->inc();
      abort_rx_flow(t.cell.flow);
      continue;
    }
    node::Cell c = t.cell;
    ++c.retries;
    nodes_[static_cast<std::size_t>(t.src)].push_retx(c);
    // The original copy left the ledger as a drop; the resurrected copy
    // re-enters it as a fresh injection sitting in the retx queue.
    c_injected_->inc();
    c_retx_->inc();
    SIRIUS_CELL_EVENT(hub_, telemetry::CellEvent::kRetransmit, now, t.src,
                      kInvalidNode, c.dst_node, c.flow, c.seq);
  }
}

void SiriusSim::apply_rack_death(NodeId rack, Time now) {
  auto& n = nodes_[static_cast<std::size_t>(rack)];
  // The rack's buffers die with it.
  const std::int64_t purged = n.purge_all_queues();
  c_dropped_->inc(purged);
  if (purged > 0) {
    // Aggregate drop: flow < 0, seq carries the purge count.
    SIRIUS_CELL_EVENT(hub_, telemetry::CellEvent::kDrop, now, rack,
                      kInvalidNode, kInvalidNode, FlowId{-1},
                      static_cast<std::int32_t>(purged));
  }
  n.cc().clear_protocol_state();
  n.abort_flows_where([](const node::LocalFlow&) { return true; });
  // Every incomplete flow with an endpoint in the rack is lost: tx-side
  // cells were just purged, rx-side servers are down. Only flows already
  // injected have receive state; later arrivals are rejected at injection.
  for (std::size_t i = 0; i < next_flow_; ++i) {
    const workload::Flow& f = workload_.flows[i];
    if (rack_of(f.src_server) == rack || rack_of(f.dst_server) == rack) {
      abort_rx_flow(f.id);
    }
  }
}

void SiriusSim::sync_exclusions(NodeId observer, Time now) {
  auto& n = nodes_[static_cast<std::size_t>(observer)];
  const auto& view = views_[static_cast<std::size_t>(observer)];
  for (NodeId d = 0; d < cfg_.racks; ++d) {
    if (d == observer) continue;
    const bool convicted = view.node_down(d);
    const bool excluded = n.cc().is_excluded(d);
    if (convicted && !excluded) {
      n.cc().exclude(d);
      // Queued cells *to* d are unrecoverable from here: drop them, and
      // release the grant of every purged VQ cell at its — alive —
      // intermediate so the relay's accounting stays exact.
      const std::int64_t purged = n.purge_dst(d, [this, d](NodeId inter) {
        if (truth_down_[static_cast<std::size_t>(inter)] == 0) {
          nodes_[static_cast<std::size_t>(inter)].cc().on_grant_release(d);
          c_released_->inc();
        }
      });
      c_dropped_->inc(purged);
      if (purged > 0) {
        SIRIUS_CELL_EVENT(hub_, telemetry::CellEvent::kDrop, now, observer,
                          kInvalidNode, d, FlowId{-1},
                          static_cast<std::int32_t>(purged));
      }
      // Cells waiting in the VQ towards d (granted by d as the relay, but
      // not yet transmitted) still belong to this source: re-route them
      // through the retransmission queue instead of dropping — no timer
      // covers them, because timers arm at first-hop transmission. If d is
      // only convicted (grey link, false alarm) its grant accounting is
      // still live and must be released; a fail-stopped d's state died
      // with the rack.
      while (auto c = n.pop_vq(d)) {
        if (truth_down_[static_cast<std::size_t>(d)] == 0) {
          nodes_[static_cast<std::size_t>(d)].cc().on_grant_release(
              c->dst_node);
          c_released_->inc();
        }
        n.push_retx(*c);
      }
      // Flows from this rack to d cannot complete: stop feeding them.
      for (const FlowId id : n.abort_flows_where(
               [d](const node::LocalFlow& f) { return f.dst_node == d; })) {
        abort_rx_flow(id);
      }
    } else if (!convicted && excluded && sched_.is_member(d)) {
      // The verdicts cleared (grey window passed, or a false alarm): the
      // member is usable again. Swapped-out racks stay excluded until the
      // control plane re-provisions them (rejoin_rack).
      n.cc().include(d);
    }
  }
}

void SiriusSim::swap_schedule(std::vector<NodeId> members, std::int64_t round,
                              std::int64_t slot) {
  sched_ = sched::CyclicSchedule(std::move(members), cfg_.uplinks());
  peer_table_.build(sched_, cfg_.racks);
  // The new calendar starts at this slot: schedule-relative arithmetic
  // (round boundaries, peer lookups, the permutation audit) rebases here.
  round_base_slot_ = slot;
  rounds_base_ = round;
  audit_flight_rounds_ = std::max(
      audit_flight_rounds_,
      static_cast<std::int32_t>((prop_slots_ + sched_.slots_per_round() - 1) /
                                sched_.slots_per_round()));
  c_swaps_->inc();
  ++generation_;  // membership moved: every node re-syncs its exclusions
}

void SiriusSim::rejoin_rack(NodeId rack, std::int64_t slot,
                            std::int64_t round) {
  // Administrative rejoin (§4.5 leaves re-provisioning to the control
  // plane; in-band rejoin is impossible because a non-member has no
  // schedule slots). The rebooted rack starts from clean state.
  health_[static_cast<std::size_t>(rack)] =
      ctrl::PeerHealth(cfg_.racks, kMissThreshold);
  views_[static_cast<std::size_t>(rack)] =
      ctrl::MembershipView(cfg_.racks, rack, quorum_);
  for (NodeId n = 0; n < cfg_.racks; ++n) {
    if (n != rack) {
      health_[static_cast<std::size_t>(n)].reset(rack);
      views_[static_cast<std::size_t>(n)].admit(rack);
    }
    nodes_[static_cast<std::size_t>(n)].cc().include(rack);
  }
  nodes_[static_cast<std::size_t>(rack)].cc().clear_protocol_state();

  std::vector<NodeId> members;
  members.reserve(static_cast<std::size_t>(sched_.nodes()) + 1);
  for (NodeId m = 0; m < cfg_.racks; ++m) {
    if (m == rack || sched_.is_member(m)) members.push_back(m);
  }
  // Provision the rebooted rack with the current membership: everything
  // outside it is excluded until convicted otherwise... which for alive
  // members never happens, and for the still-dead is already true.
  auto& cc = nodes_[static_cast<std::size_t>(rack)].cc();
  for (NodeId x = 0; x < cfg_.racks; ++x) {
    if (x == rack) continue;
    const bool member =
        std::find(members.begin(), members.end(), x) != members.end();
    if (member) {
      cc.include(x);
    } else {
      cc.exclude(x);
    }
  }
  swap_schedule(std::move(members), round, slot);
}

void SiriusSim::round_boundary_failover(std::int64_t round, std::int64_t slot,
                                        Time now) {
  const Time round_len =
      cfg_.slots.slot_duration() * sched_.slots_per_round();
  // Anchor the latency stats to the round containing each first disruption.
  if (fault_round_ < 0 && !fault_time_.is_infinite() &&
      fault_time_ < now + round_len) {
    fault_round_ = round;
  }
  if (rack_fault_round_ < 0 && !rack_fault_time_.is_infinite() &&
      rack_fault_time_ < now + round_len) {
    rack_fault_round_ = round;
  }

  // 1. Ground-truth transitions, quantised to round boundaries: a rack
  // that dies inside this round misses every burst of the round (probe at
  // the round's end), which is exactly when its peers start counting.
  const Time probe = now + round_len - Time::ps(1);
  for (NodeId r = 0; r < cfg_.racks; ++r) {
    const bool down = cfg_.faults.rack_down(r, probe);
    if (down && truth_down_[static_cast<std::size_t>(r)] == 0) {
      truth_down_[static_cast<std::size_t>(r)] = 1;
      apply_rack_death(r, now);
    } else if (!down && truth_down_[static_cast<std::size_t>(r)] != 0) {
      // Powered back on; rejoins the schedule below once the plan's
      // recovery time has passed.
      truth_down_[static_cast<std::size_t>(r)] = 0;
    }
  }

  // 2. Retransmission timeouts resurrect lost granted cells.
  expire_retx_timers(round, now);

  // 3. Every alive member acts on its merged view: exclude newly convicted
  // nodes (and purge the queues that reference them), re-admit cleared
  // members.
  for (NodeId n = 0; n < cfg_.racks; ++n) {
    if (truth_down_[static_cast<std::size_t>(n)] != 0 || !sched_.is_member(n)) {
      continue;
    }
    // A sync leaves n's exclusions agreeing with its view; they can only
    // disagree again once the view or the membership has changed.
    const auto i = static_cast<std::size_t>(n);
    if (synced_revision_[i] == views_[i].revision() &&
        synced_generation_[i] == generation_) {
      continue;
    }
    sync_exclusions(n, now);
    synced_revision_[i] = views_[i].revision();
    synced_generation_[i] = generation_;
  }

  // 3b. Dissemination latency: the first mid-run rack fault counts as
  // disseminated when every alive member has excluded the failed rack.
  if (fo_.dissemination_rounds < 0 && first_fault_rack_ != kInvalidNode &&
      rack_fault_round_ >= 0) {
    bool all = true;
    for (NodeId n = 0; n < cfg_.racks && all; ++n) {
      if (n == first_fault_rack_ ||
          truth_down_[static_cast<std::size_t>(n)] != 0 ||
          !sched_.is_member(n)) {
        continue;
      }
      all = nodes_[static_cast<std::size_t>(n)].cc().is_excluded(
          first_fault_rack_);
    }
    if (all) {
      fo_.dissemination_rounds = round - rack_fault_round_;
      Time lat = now - rack_fault_time_;
      if (lat < Time::zero()) lat = Time::zero();
      fo_.dissemination_latency = lat;
    }
  }

  // 4. Schedule swap: a member leaves the calendar once every alive member
  // has excluded it — the views have converged, so everyone rebases onto
  // the new calendar at the same boundary.
  const auto droppable = [this](NodeId m) {
    if (!sched_.is_member(m)) return false;
    bool any_observer = false;
    bool all_excluded = true;
    for (NodeId o = 0; o < cfg_.racks && all_excluded; ++o) {
      if (o == m || truth_down_[static_cast<std::size_t>(o)] != 0 ||
          !sched_.is_member(o)) {
        continue;
      }
      any_observer = true;
      all_excluded = nodes_[static_cast<std::size_t>(o)].cc().is_excluded(m);
    }
    return any_observer && all_excluded;
  };
  // Almost every round drops nobody, so the member lists are built only
  // once someone is droppable.
  bool any_drop = false;
  for (NodeId m = 0; m < cfg_.racks && !any_drop; ++m) any_drop = droppable(m);
  std::vector<NodeId> keep;
  std::vector<NodeId> drop;
  for (NodeId m = 0; m < cfg_.racks && any_drop; ++m) {
    if (sched_.is_member(m)) (droppable(m) ? drop : keep).push_back(m);
  }
  if (any_drop && keep.size() >= 2) {
    for (const NodeId m : drop) {
      if (truth_down_[static_cast<std::size_t>(m)] != 0) continue;
      // A live rack voted out (quorum of grey links): it is cut off from
      // the fabric, so its flows and queues are as dead as a crashed
      // rack's — the documented blast radius of a false conviction.
      apply_rack_death(m, now);
    }
    swap_schedule(std::move(keep), round, slot);
  }

  // 5. Administrative rejoin of recovered racks whose plan recovery time
  // has passed. Driven only by plan recovery events — never inferred from
  // traffic — so a grey-convicted rack cannot oscillate back in.
  for (const auto& f : cfg_.faults.rack_faults()) {
    if (f.recover_at.is_infinite() || now < f.recover_at) continue;
    if (truth_down_[static_cast<std::size_t>(f.rack)] != 0 ||
        sched_.is_member(f.rack)) {
      continue;
    }
    rejoin_rack(f.rack, slot, round);
  }
}

SiriusSimResult SiriusSim::run() {
  const Time slot_len = cfg_.slots.slot_duration();
  const std::int64_t last_arrival_slot =
      workload_.last_arrival() / slot_len + 1;
  const std::int64_t hard_stop = last_arrival_slot + kMaxDrainSlots;

  // Baseline for --stop-on-violation: only violations recorded *by this
  // run's slots* stop the loop, not leftovers from an earlier phase.
  const std::int64_t inv_base =
      check::InvariantContext::instance().violations();
  // The cursor is a member: a restored sim re-enters here mid-run and
  // continues from the snapshot's slot.
  for (; flows_remaining_ > 0 && slot_ < hard_stop; ++slot_) {
    SIRIUS_PROFILE_SCOPE(hub_->profiler(), telemetry::ProfScope::kSlotLoop);
    const Time now = cfg_.slots.slot_start(slot_);
    // Checkpoint before any slot work: the top of the slot is the one
    // point where the cell ledger is guaranteed consistent (everything is
    // delivered, queued, in flight, or dropped — never mid-move).
    if (cfg_.checkpoint_sink && now >= next_checkpoint_) {
      SIRIUS_PROFILE_SCOPE(hub_->profiler(),
                           telemetry::ProfScope::kCheckpoint);
      cfg_.checkpoint_sink(slot_, now, checkpoint_state());
      while (next_checkpoint_ <= now) {
        next_checkpoint_ += cfg_.checkpoint_every;
      }
    }
    if ((slot_ - round_base_slot_) % sched_.slots_per_round() == 0) {
      const std::int64_t round = round_of_slot(slot_);
      // Failover first: purges and schedule swaps must precede grant
      // issuance so no grant references a queue that is about to vanish.
      // A swap rebases the round phase at this very slot, so the round
      // index is stable across it.
      if (faults_active_) {
        SIRIUS_PROFILE_SCOPE(hub_->profiler(),
                             telemetry::ProfScope::kFailover);
        round_boundary_failover(round, slot_, now);
      }
      {
        SIRIUS_PROFILE_SCOPE(hub_->profiler(),
                             telemetry::ProfScope::kEpochCc);
        epoch_boundary(round, now);
      }
      // Audit between phases, where the ledger is consistent: cells are
      // delivered, queued, or in an in_flight_ bucket, never mid-move.
      if (cfg_.audit_period_rounds > 0 &&
          round % cfg_.audit_period_rounds == 0) {
        SIRIUS_PROFILE_SCOPE(hub_->profiler(), telemetry::ProfScope::kAudit);
        audit_slot_ = slot_ - round_base_slot_;
        auditors_.run_all();
      }
      // Export cadence rides the round boundary: refresh gauges, then let
      // the sampler decide whether a row is due. Reads sim state, never
      // writes it.
      if (hub_->metrics_enabled()) {
        SIRIUS_PROFILE_SCOPE(hub_->profiler(), telemetry::ProfScope::kStats);
        update_gauges();
        hub_->maybe_sample(now);
      }
    }
    {
      SIRIUS_PROFILE_SCOPE(hub_->profiler(),
                           telemetry::ProfScope::kLandInject);
      inject_arrivals(now);
      land_arrivals(slot_, now);
    }
    {
      SIRIUS_PROFILE_SCOPE(hub_->profiler(), telemetry::ProfScope::kTransmit);
      transmit_slot(slot_, now);
    }
    // Bisection replay: freeze at the first slot whose work recorded a
    // violation. slot_ is left pointing AT the violating slot, which is
    // what SiriusSimResult::slots_simulated then reports.
    if (cfg_.stop_on_violation &&
        check::InvariantContext::instance().violations() > inv_base) {
      break;
    }
  }
  // Land whatever is still in flight so delivery stats are complete.
  for (std::int64_t k = 0; k <= prop_slots_ && flows_remaining_ > 0; ++k) {
    land_arrivals(slot_ + k, cfg_.slots.slot_start(slot_ + k));
  }
  if (cfg_.audit_period_rounds > 0 && !cfg_.stop_on_violation) {
    audit_slot_ = slot_ - round_base_slot_;
    auditors_.run_all();
  }

  // Close out the export: final gauge refresh plus one unconditional row
  // so the series always covers the full run.
  if (hub_->metrics_enabled()) {
    update_gauges();
    hub_->sample(cfg_.slots.slot_start(slot_));
  }

  SiriusSimResult r;
  r.fct = fct_.summarize();
  r.goodput_normalized = goodput_.normalized(measure_end_);
  for (const auto& n : nodes_) {
    r.worst_node_queue_peak_kb =
        std::max(r.worst_node_queue_peak_kb, n.peak_queue().in_kb());
  }
  r.worst_reorder_peak_kb = reorder_peaks_.worst_peak().in_kb();
  r.slots_simulated = slot_;
  r.cells_delivered = c_delivered_->value();
  r.incomplete_flows = flows_remaining_;
  r.rejected_flows = c_rejected_flows_->value();
  r.sim_end = cfg_.slots.slot_start(slot_);
  r.per_flow_completion = std::move(completions_);
  r.requests_sent = c_requests_->value();
  r.grants_released = c_released_->value();
  r.slots_tx_relay = c_tx_relay_->value();
  r.slots_tx_first = c_tx_first_->value();
  for (const auto& n : nodes_) {
    r.grants_issued += n.cc().stat_grants_issued();
    r.grants_denied_q += n.cc().stat_denied_queue_bound();
  }
  // FailoverStats keeps its public shape; the counter-backed fields are
  // snapshotted from the registry here.
  fo_.cells_dropped = c_dropped_->value();
  fo_.cells_retransmitted = c_retx_->value();
  fo_.retx_abandoned = c_retx_abandoned_->value();
  fo_.duplicates_discarded = c_duplicates_->value();
  fo_.flows_aborted = c_flows_aborted_->value();
  fo_.schedule_swaps = c_swaps_->value();
  if (detect_round_ >= 0 && fault_round_ >= 0) {
    fo_.detection_rounds = detect_round_ - fault_round_;
    Time lat = detect_time_ - fault_time_;
    if (lat < Time::zero()) lat = Time::zero();
    fo_.detection_latency = lat;
  }
  if (recovery_) {
    r.recovery_curve = recovery_->curve();
    if (!fault_time_.is_infinite()) {
      fo_.recovery = recovery_->analyze(fault_time_, kRecoverFrac,
                                        measure_end_);
    }
  }
  r.failover = fo_;
  r.work.pairs_visited = pairs_visited_;
  r.work.flows_visited = pending_scratch_.flows_visited;
  for (const node::Node& n : nodes_) {
    r.work.queue_slots += static_cast<std::int64_t>(n.queue_slots());
  }
  r.work.view_rows_merged = view_rows_merged_;
  return r;
}

// ---- checkpoint / restore -------------------------------------------------

std::uint64_t SiriusSim::state_fingerprint() const {
  if (fingerprint_) return *fingerprint_;
  std::uint64_t h = kFnvOffset;
  h = fnv_u64(h, static_cast<std::uint64_t>(cfg_.racks));
  h = fnv_u64(h, static_cast<std::uint64_t>(cfg_.servers_per_rack));
  h = fnv_u64(h, static_cast<std::uint64_t>(cfg_.uplinks()));
  h = fnv_u64(h,
              static_cast<std::uint64_t>(cfg_.slots.cell_size().in_bytes()));
  h = fnv_u64(
      h, static_cast<std::uint64_t>(cfg_.slots.slot_duration().picoseconds()));
  h = fnv_u64(
      h, static_cast<std::uint64_t>(cfg_.slots.line_rate().bits_per_sec()));
  h = fnv_u64(h, static_cast<std::uint64_t>(cfg_.queue_limit));
  h = fnv_u64(h, static_cast<std::uint64_t>(cfg_.spread));
  // These words keep the layout of checkpoints written while the constants
  // below were config fields (beside an `ideal` flag, and two "0 = auto"
  // overrides, hashed as 0), so those checkpoints still restore.
  h = fnv_u64(h, static_cast<std::uint64_t>(kMaxVqDepth));
  h = fnv_u64(h, cfg_.routing == RoutingMode::kIdeal ? 1u : 0u);
  h = fnv_u64(h, cfg_.routing == RoutingMode::kDirect ? 1u : 0u);
  h = fnv_u64(h, static_cast<std::uint64_t>(kPropagationDelay.picoseconds()));
  h = fnv_u64(h, static_cast<std::uint64_t>(cfg_.server_nic.bits_per_sec()));
  h = fnv_u64(h,
              static_cast<std::uint64_t>(kRackSwitchLatency.picoseconds()));
  h = fnv_u64(h, static_cast<std::uint64_t>(kMissThreshold));
  h = fnv_u64(h, 0u);  // node-down quorum override
  h = fnv_u64(h, 0u);  // retransmission timeout override
  h = fnv_u64(h, static_cast<std::uint64_t>(kRetryLimit));
  h = fnv_u64(h, static_cast<std::uint64_t>(workload_.flows.size()));
  for (const workload::Flow& f : workload_.flows) {
    h = fnv_u64(h, static_cast<std::uint64_t>(f.id));
    h = fnv_u64(h, static_cast<std::uint64_t>(f.src_server));
    h = fnv_u64(h, static_cast<std::uint64_t>(f.dst_server));
    h = fnv_u64(h, static_cast<std::uint64_t>(f.size.in_bytes()));
    h = fnv_u64(h, static_cast<std::uint64_t>(f.arrival.picoseconds()));
  }
  fingerprint_ = h;
  return h;
}

void SiriusSim::serialize_state(ckpt::Writer& w) const {
  w.tag(kTagMeta);
  w.u64(state_fingerprint());
  w.b(faults_active_);
  w.i64(slot_);
  w.i64(audit_slot_);
  w.u64(static_cast<std::uint64_t>(next_flow_));
  w.i64(flows_remaining_);

  w.tag(kTagRng);
  const Rng::State rs = rng_.state();
  for (const std::uint64_t s : rs.s) w.u64(s);
  const Rng::State fs = fault_rng_.state();
  for (const std::uint64_t s : fs.s) w.u64(s);

  w.tag(kTagSched);
  sched_.serialize(w);
  w.i64(round_base_slot_);
  w.i64(rounds_base_);
  w.i32(audit_flight_rounds_);

  w.tag(kTagNodes);
  w.u64(nodes_.size());
  for (const node::Node& n : nodes_) n.serialize(w);

  w.tag(kTagRx);
  w.u64(rx_index_.size());
  for (const std::uint32_t i : rx_index_) {
    w.b(i != 0);
    if (i == 0) continue;
    const RxFlow& rx = rx_flows_[i - 1];
    w.i64(rx.completion.picoseconds());
    w.b(rx.aborted);
    rx.reorder.serialize(w, pending_of(rx));
  }
  {
    std::vector<std::int64_t> free_ps;
    free_ps.reserve(server_free_.size());
    for (const Time t : server_free_) free_ps.push_back(t.picoseconds());
    w.vec_i64(free_ps);
  }

  w.tag(kTagWire);
  w.u64(in_flight_.size());
  for (const auto& bucket : in_flight_) {
    w.u64(bucket.size());
    for (const Arrival& a : bucket) {
      node::put_cell(w, a.cell);
      w.i32(a.to);
    }
  }

  w.tag(kTagStats);
  fct_.serialize(w);
  goodput_.serialize(w);
  reorder_peaks_.serialize(w);
  {
    std::vector<std::int64_t> done_ps;
    done_ps.reserve(completions_.size());
    for (const Time t : completions_) done_ps.push_back(t.picoseconds());
    w.vec_i64(done_ps);
  }
  w.b(recovery_ != nullptr);
  if (recovery_ != nullptr) recovery_->serialize(w);

  w.tag(kTagFailover);
  if (faults_active_) {
    w.u64(health_.size());
    for (const ctrl::PeerHealth& hh : health_) hh.serialize(w);
    w.u64(views_.size());
    for (const ctrl::MembershipView& v : views_) v.serialize(w);
    w.vec_u8(truth_down_);
    // The timers in firing order, ascending (deadline, flow, seq): the
    // wheel's lists from the next round to fire on, each list (one
    // deadline) sorted. A sorted array is also a valid min-heap under
    // timer_later, the layout files written before the timer wheel hold,
    // so one reader takes both.
    const std::int64_t first = first_round_from(
        slot_, round_base_slot_, rounds_base_, sched_.slots_per_round());
    std::vector<RetxTimer> timers;
    timers.reserve(static_cast<std::size_t>(retx_pending_));
    for (std::int64_t d = first; d < first + retx_span_; ++d) {
      const auto from = static_cast<std::ptrdiff_t>(timers.size());
      retx_wheel_.for_each(
          retx_list(d), [&timers](const RetxTimer& t) { timers.push_back(t); });
      std::sort(timers.begin() + from, timers.end(),
                [](const RetxTimer& a, const RetxTimer& b) {
                  return timer_later(b, a);
                });
    }
    w.u64(timers.size());
    for (const RetxTimer& t : timers) {
      w.i64(t.deadline_round);
      node::put_cell(w, t.cell);
      w.i32(t.src);
    }
    w.i64(fault_round_);
    w.i64(rack_fault_round_);
    w.i64(detect_round_);
    w.i64(detect_time_.picoseconds());
    w.i64(fo_.dissemination_rounds);
    w.i64(fo_.dissemination_latency.picoseconds());
  }

  serialize_telemetry(w);
  w.tag(kTagEnd);
}

void SiriusSim::serialize_telemetry(ckpt::Writer& w) const {
  w.tag(kTagTelemetry);
  // Values travel keyed by name so a restore survives registration-order
  // drift; the final exported artifacts (JSONL rows, histogram summary)
  // of a resumed run must be byte-identical to an uninterrupted run's.
  const telemetry::MetricsRegistry& m = hub_->metrics();
  w.u64(m.counter_names().size());
  for (const std::string& name : m.counter_names()) {
    w.str(name);
    w.i64(m.find_counter(name)->value());
  }
  w.u64(m.gauge_names().size());
  for (const std::string& name : m.gauge_names()) {
    w.str(name);
    w.f64(m.find_gauge(name)->value());
  }
  w.u64(m.histogram_names().size());
  for (const std::string& name : m.histogram_names()) {
    w.str(name);
    w.vec_u64(m.find_histogram(name)->counts());
  }
  const telemetry::TimeSeriesSampler& s = hub_->sampler();
  w.u64(s.columns().size());
  for (const std::string& c : s.columns()) w.str(c);
  w.u64(s.rows().size());
  for (const telemetry::TimeSeriesSampler::Row& row : s.rows()) {
    w.i64(row.at.picoseconds());
    w.vec_f64(row.values);
  }
  w.i64(s.next_sample_at().picoseconds());
}

bool SiriusSim::restore_telemetry(ckpt::Reader& r) {
  if (!r.expect_tag(kTagTelemetry, "telemetry")) return false;
  telemetry::MetricsRegistry& m = hub_->metrics();
  const std::size_t nc = r.count(9, "counters");
  for (std::size_t i = 0; i < nc && r.ok(); ++i) {
    const std::string name = r.str();
    const std::int64_t v = r.i64();
    if (!r.ok()) break;
    telemetry::Counter* c = m.find_counter_mut(name);
    if (c == nullptr) {
      r.fail("checkpoint carries a counter this run never registered: '" +
             name + "'");
      break;
    }
    if (v < 0) {
      r.fail("negative checkpoint value for counter '" + name + "'");
      break;
    }
    c->set(v);
  }
  const std::size_t ng = r.count(9, "gauges");
  for (std::size_t i = 0; i < ng && r.ok(); ++i) {
    const std::string name = r.str();
    const double v = r.f64();
    if (!r.ok()) break;
    telemetry::Gauge* g = m.find_gauge_mut(name);
    if (g == nullptr) {
      r.fail("checkpoint carries a gauge this run never registered: '" +
             name + "'");
      break;
    }
    g->set(v);
  }
  const std::size_t nh = r.count(9, "histograms");
  for (std::size_t i = 0; i < nh && r.ok(); ++i) {
    const std::string name = r.str();
    const std::vector<std::uint64_t> counts = r.vec_u64("histogram bins");
    if (!r.ok()) break;
    Histogram* hist = m.find_histogram_mut(name);
    if (hist == nullptr) {
      r.fail("checkpoint carries a histogram this run never registered: '" +
             name + "'");
      break;
    }
    if (!hist->set_counts(counts)) {
      r.fail("histogram '" + name +
             "' bin count does not match this run's geometry");
      break;
    }
  }
  const std::size_t ncols = r.count(8, "sampler columns");
  std::vector<std::string> cols;
  cols.reserve(ncols);
  for (std::size_t i = 0; i < ncols && r.ok(); ++i) cols.push_back(r.str());
  const std::size_t nrows = r.count(8, "sampler rows");
  std::vector<telemetry::TimeSeriesSampler::Row> rows;
  rows.reserve(nrows);
  for (std::size_t i = 0; i < nrows && r.ok(); ++i) {
    telemetry::TimeSeriesSampler::Row row;
    row.at = Time::ps(r.i64());
    row.values = r.vec_f64("sampler row");
    if (!r.ok()) break;
    if (row.values.size() != cols.size()) {
      r.fail("sampler row width does not match the column set");
      break;
    }
    rows.push_back(std::move(row));
  }
  const Time next = Time::ps(r.i64());
  if (!r.ok()) return false;
  hub_->sampler().restore_series(std::move(cols), std::move(rows), next);
  return true;
}

bool SiriusSim::restore_state_impl(ckpt::Reader& r) {
  if (!r.expect_tag(kTagMeta, "meta")) return false;
  const std::uint64_t fp = r.u64();
  if (r.ok() && fp != state_fingerprint()) {
    r.fail(
        "checkpoint fingerprint does not match this run's config/workload "
        "(geometry, knobs and workload must be identical; only the seed and "
        "the fault plan may differ)");
  }
  const bool snap_faults = r.b();
  if (r.ok() && snap_faults != faults_active_) {
    r.fail(
        "checkpoint fault-plan dynamism differs from this run's (both the "
        "snapshot and the continuation must have the in-band failover "
        "machinery on, or both off)");
  }
  const std::int64_t slot = r.i64();
  const std::int64_t audit_slot = r.i64();
  const std::uint64_t next_flow = r.u64();
  const std::int64_t flows_remaining = r.i64();
  if (r.ok() && (slot < 0 || audit_slot < 0)) {
    r.fail("negative slot cursor");
  }
  if (r.ok() && next_flow > workload_.flows.size()) {
    r.fail("flow-injection cursor exceeds the workload");
  }
  if (r.ok() &&
      (flows_remaining < 0 ||
       flows_remaining > static_cast<std::int64_t>(workload_.flows.size()))) {
    r.fail("flows-remaining count out of range");
  }
  if (!r.ok()) return false;
  // Every queued, in-flight or timed cell belongs to an injected flow.
  const auto injected = std::span<const workload::Flow>(workload_.flows)
                            .first(static_cast<std::size_t>(next_flow));

  if (!r.expect_tag(kTagRng, "rng")) return false;
  Rng::State rs{};
  for (std::uint64_t& s : rs.s) s = r.u64();
  Rng::State fs{};
  for (std::uint64_t& s : fs.s) s = r.u64();
  if (!r.ok()) return false;

  if (!r.expect_tag(kTagSched, "schedule")) return false;
  if (!sched_.restore(r)) return false;
  {
    // The schedule must span this run's uplinks and name only its racks;
    // the peer table and every per-node array are sized by them.
    std::int32_t members = 0;
    for (NodeId n = 0; n < cfg_.racks; ++n) {
      if (sched_.is_member(n)) ++members;
    }
    if (sched_.uplinks() != cfg_.uplinks() || members != sched_.nodes()) {
      r.fail("schedule does not match this run's racks and uplinks");
      return false;
    }
  }
  peer_table_.build(sched_, cfg_.racks);
  const std::int64_t round_base_slot = r.i64();
  const std::int64_t rounds_base = r.i64();
  const std::int32_t audit_flight = r.i32();
  if (r.ok() &&
      (round_base_slot < 0 || round_base_slot > slot || rounds_base < 0 ||
       rounds_base > round_base_slot || audit_flight < 1)) {
    r.fail("schedule swap base out of range");
  }
  if (!r.ok()) return false;

  if (!r.expect_tag(kTagNodes, "nodes")) return false;
  if (r.count(1, "nodes") != nodes_.size()) {
    r.fail("node count does not match this run's rack count");
    return false;
  }
  for (node::Node& n : nodes_) {
    if (!n.restore(r, injected)) return false;
  }

  if (!r.expect_tag(kTagRx, "receive state")) return false;
  if (r.count(1, "rx flows") != rx_index_.size()) {
    r.fail("rx flow count does not match the workload");
    return false;
  }
  // Only an injected inter-rack flow has receive state, and its bitmap
  // covers its workload flow's cells (both checked below), so one pass over
  // the injected flows sizes the bitmap words; the constructor reserved a
  // record per flow. Restoring receive state allocates nothing more.
  const DataSize cell = cfg_.slots.cell_size();
  const auto crosses_core = [this](const workload::Flow& f) {
    return rack_of(f.src_server) != rack_of(f.dst_server);
  };
  std::size_t rx_words = 0;
  for (std::size_t id = 0; id < next_flow; ++id) {
    const workload::Flow& f = workload_.flows[id];
    if (crosses_core(f)) {
      rx_words +=
          node::ReorderBuffer::words_for(node::cells_for(f.size, cell));
    }
  }
  rx_flows_.clear();
  rx_words_.clear();
  rx_words_.reserve(rx_words);
  std::fill(rx_index_.begin(), rx_index_.end(), 0u);
  for (std::size_t id = 0; id < rx_index_.size(); ++id) {
    const bool present = r.b();
    if (!r.ok()) return false;
    if (!present) continue;
    const workload::Flow& f = workload_.flows[id];
    if (id >= next_flow) {
      r.fail("receive state for a flow not yet injected");
      return false;
    }
    if (!crosses_core(f)) {
      r.fail("receive state for an intra-rack flow");
      return false;
    }
    const std::int64_t comp_ps = r.i64();
    const bool aborted = r.b();
    const std::int64_t cells = node::cells_for(f.size, cell);
    RxFlow& rx = add_rx_flow(static_cast<FlowId>(id), cells);
    if (!rx.reorder.restore(r, pending_of(rx))) return false;
    if (rx.reorder.total_cells() != cells) {
      r.fail("receive state total cells differ from the workload flow's");
      return false;
    }
    rx.completion = Time::ps(comp_ps);
    rx.aborted = aborted;
  }
  {
    const std::vector<std::int64_t> free_ps = r.vec_i64("server downlinks");
    if (!r.ok()) return false;
    if (free_ps.size() != server_free_.size()) {
      r.fail("server downlink count does not match this run's config");
      return false;
    }
    for (std::size_t i = 0; i < free_ps.size(); ++i) {
      server_free_[i] = Time::ps(free_ps[i]);
    }
  }

  if (!r.expect_tag(kTagWire, "in-flight ring")) return false;
  if (r.count(1, "in-flight buckets") != in_flight_.size()) {
    r.fail("in-flight ring size does not match this run's config");
    return false;
  }
  for (auto& bucket : in_flight_) {
    bucket.clear();
    const std::size_t n = r.count(node::kCellBytes + 4, "in-flight cells");
    if (!r.ok()) return false;
    bucket.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      Arrival a;
      a.cell = node::get_cell(r);
      a.to = r.i32();
      if (!r.ok()) return false;
      if (a.to < 0 || a.to >= cfg_.racks) {
        r.fail("in-flight cell addressed outside the rack range");
        return false;
      }
      if (!node::in_workload(a.cell, injected, cfg_.slots.cell_size())) {
        r.fail("in-flight cell outside the workload");
        return false;
      }
      bucket.push_back(a);
    }
  }

  if (!r.expect_tag(kTagStats, "statistics")) return false;
  if (!fct_.restore(r)) return false;
  if (!goodput_.restore(r)) return false;
  if (!reorder_peaks_.restore(r)) return false;
  {
    const std::vector<std::int64_t> done_ps = r.vec_i64("completion times");
    if (!r.ok()) return false;
    if (done_ps.size() != completions_.size()) {
      r.fail("completion-time count does not match the workload");
      return false;
    }
    for (std::size_t i = 0; i < done_ps.size(); ++i) {
      completions_[i] = Time::ps(done_ps[i]);
    }
  }
  const bool has_recovery = r.b();
  if (!r.ok()) return false;
  if (has_recovery != (recovery_ != nullptr)) {
    r.fail(
        "recovery-curve recording differs between the checkpoint and this "
        "run's config");
    return false;
  }
  if (recovery_ != nullptr && !recovery_->restore(r)) return false;

  if (!r.expect_tag(kTagFailover, "failover")) return false;
  if (faults_active_) {
    if (r.count(1, "peer-health detectors") != health_.size()) {
      r.fail("detector count does not match this run's rack count");
      return false;
    }
    for (ctrl::PeerHealth& hh : health_) {
      if (!hh.restore(r)) return false;
    }
    if (r.count(1, "membership views") != views_.size()) {
      r.fail("membership view count does not match this run's rack count");
      return false;
    }
    for (std::size_t n = 0; n < views_.size(); ++n) {
      ctrl::MembershipView& v = views_[n];
      if (!v.restore(r)) return false;
      if (v.racks() != cfg_.racks || v.owner() != static_cast<NodeId>(n) ||
          v.quorum() != quorum_) {
        r.fail("membership view does not match this run's racks and quorum");
        return false;
      }
    }
    {
      std::vector<std::uint8_t> down = r.vec_u8("ground-truth rack status");
      if (!r.ok()) return false;
      if (down.size() != truth_down_.size()) {
        r.fail("ground-truth vector does not match this run's rack count");
        return false;
      }
      truth_down_ = std::move(down);
    }
    const std::size_t timers =
        r.count(8 + node::kCellBytes + 4, "retransmission timers");
    if (!r.ok()) return false;
    // Every live timer is due within one span of the first round the
    // resumed run processes.
    const std::int64_t next_round = first_round_from(
        slot, round_base_slot, rounds_base, sched_.slots_per_round());
    std::vector<RetxTimer> restored(timers);
    for (RetxTimer& t : restored) {
      t.deadline_round = r.i64();
      t.cell = node::get_cell(r);
      t.src = r.i32();
    }
    if (!r.ok()) return false;
    for (const RetxTimer& t : restored) {
      if (t.src < 0 || t.src >= cfg_.racks) {
        r.fail("retransmission timer source outside the rack range");
        return false;
      }
      // Expiry indexes the flow's receive record and the destination's
      // retransmission queue.
      if (!node::in_workload(t.cell, injected, cfg_.slots.cell_size()) ||
          t.cell.dst_node < 0 || t.cell.dst_node >= cfg_.racks) {
        r.fail("retransmission timer for a cell outside the workload");
        return false;
      }
      if (t.deadline_round < next_round ||
          t.deadline_round - next_round >= retx_span_) {
        r.fail("retransmission timer deadline outside the timer wheel");
        return false;
      }
    }
    // Files hold the timers in firing order (older files: a live heap
    // array, of which a sorted array is one case); either is a min-heap.
    if (!std::is_heap(restored.begin(), restored.end(),
                      &SiriusSim::timer_later)) {
      r.fail("retransmission timers are not in heap order");
      return false;
    }
    retx_wheel_.reset();
    retx_wheel_.reserve(timers);
    for (const RetxTimer& t : restored) {
      retx_wheel_.push(retx_list(t.deadline_round), t);
    }
    retx_pending_ = static_cast<std::int64_t>(timers);
    fault_round_ = r.i64();
    rack_fault_round_ = r.i64();
    detect_round_ = r.i64();
    detect_time_ = Time::ps(r.i64());
    fo_.dissemination_rounds = r.i64();
    fo_.dissemination_latency = Time::ps(r.i64());
    if (!r.ok()) return false;
  }

  if (!restore_telemetry(r)) return false;
  if (!r.expect_tag(kTagEnd, "end")) return false;
  if (!r.expect_end()) return false;

  // All sections decoded and validated: commit the scalar cursors.
  slot_ = slot;
  audit_slot_ = audit_slot;
  next_flow_ = static_cast<std::size_t>(next_flow);
  flows_remaining_ = flows_remaining;
  rng_.set_state(rs);
  fault_rng_.set_state(fs);
  round_base_slot_ = round_base_slot;
  rounds_base_ = rounds_base;
  audit_flight_rounds_ = audit_flight;
  ++generation_;  // every node re-syncs its exclusions against its view
  if (cfg_.checkpoint_every > Time::zero()) {
    // The smallest cadence multiple strictly after the restored slot's
    // start reproduces the straight run's sink cursor exactly (the sink
    // fires at the first slot-top at or past each multiple, then advances
    // past `now`).
    const Time now = cfg_.slots.slot_start(slot_);
    next_checkpoint_ =
        cfg_.checkpoint_every * (now / cfg_.checkpoint_every + 1);
  }
  return true;
}

std::string SiriusSim::checkpoint_state() const {
  // State only grows slowly between snapshots; the slack absorbs that.
  ckpt::Writer w(ckpt_size_hint_ + ckpt_size_hint_ / 8);
  serialize_state(w);
  ckpt_size_hint_ = w.size();
  return std::move(w).take();
}

bool SiriusSim::restore_state(std::string_view payload, std::string* error) {
  ckpt::Reader r(payload);
  if (restore_state_impl(r)) {
    ckpt_size_hint_ = payload.size();
    return true;
  }
  if (error != nullptr) {
    *error = r.ok() ? std::string("checkpoint restore failed") : r.error();
  }
  return false;
}

void SiriusSim::reseed_streams(std::uint64_t salt) {
  // Deterministic per salt, unrelated to the restored stream positions:
  // two forks of one snapshot with different salts explore different
  // futures; the same salt reproduces the same future.
  rng_ = Rng(salt ^ 0x464f524b53494dull);
  fault_rng_ = Rng(salt ^ 0x464f524b464cull);
}

}  // namespace sirius::sim
