// The Sirius node (rack switch or server NIC) data-plane state (§4.2–4.3).
//
// A node plays three roles simultaneously:
//  * source:       LOCAL holds locally generated cells (modelled as per-flow
//                  counters fed at server line rate); granted cells move to
//                  per-intermediate virtual queues (VQs) for first-hop
//                  transmission;
//  * intermediate: per-destination forward queues (FQs) hold relayed cells,
//                  bounded to Q by the congestion control;
//  * destination:  arriving cells are handed to the receive path (reorder
//                  buffers + server downlinks, owned by the simulator).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "cc/request_grant.hpp"
#include "common/time.hpp"
#include "node/cell.hpp"
#include "node/pooled_queues.hpp"
#include "stats/occupancy.hpp"

namespace sirius::node {

/// A flow queued at its source node.
struct LocalFlow {
  FlowId id = 0;
  NodeId dst_node = 0;
  std::int32_t src_server = 0;
  std::int32_t dst_server = 0;
  DataSize size;
  Time arrival;
  std::int64_t total_cells = 0;
  std::int64_t moved_cells = 0;  ///< cells already moved out of LOCAL
  /// Cells made available so far by the server->rack link (grows at the
  /// injection rate from `arrival`).
  [[nodiscard]] std::int64_t available(Time now, Time cell_interval) const {
    if (now < arrival) return 0;
    const std::int64_t released = (now - arrival) / cell_interval + 1;
    return std::min(total_cells, released);
  }
  [[nodiscard]] std::int64_t pending(Time now, Time cell_interval) const {
    return available(now, cell_interval) - moved_cells;
  }
  [[nodiscard]] bool exhausted() const { return moved_cells >= total_cells; }
};

/// Working storage for Node::pending_cell_dsts, owned by the caller and
/// reused across nodes and epochs, so building the request list stops
/// allocating once it has seen its peak size. Each source server is one
/// bucket; a bucket's flows form a circular list that the round robin
/// walks, unlinking a flow once its pending cells are listed.
struct PendingScratch {
  struct Entry {
    NodeId dst = 0;
    std::int64_t left = 0;   ///< pending cells not yet listed
    std::uint32_t next = 0;  ///< next entry of the same bucket
  };
  struct Bucket {
    std::int32_t server = 0;
    std::uint32_t cur = 0;   ///< entry served next (the bucket's front)
    std::uint32_t prev = 0;  ///< entry linking to `cur` (the bucket's back)
    std::uint32_t size = 0;
  };
  std::vector<Entry> entries;
  std::vector<Bucket> buckets;
  /// LOCAL flows scanned, summed over calls (sim::WorkCounters).
  std::int64_t flows_visited = 0;
};

class Node {
 public:
  Node(NodeId self, const cc::RequestGrantConfig& cc_cfg, DataSize cell_capacity);

  [[nodiscard]] NodeId self() const { return self_; }
  cc::RequestGrantNode& cc() { return cc_; }
  const cc::RequestGrantNode& cc() const { return cc_; }

  // ---- LOCAL buffer (source role) ---------------------------------------

  /// Registers a newly arrived flow in LOCAL.
  void add_flow(const LocalFlow& f);

  /// Writes to `*out` the destinations of cells pending in LOCAL,
  /// truncated to `limit` entries; input to
  /// cc::RequestGrantNode::build_requests. Cells are interleaved with
  /// two-level round-robin fairness — across source servers first, then
  /// across each server's flows — modelling the §4.3 credit-based
  /// server->rack flow control, which gives every server an equal share of
  /// the LOCAL buffer regardless of how many elephants its neighbours run.
  /// Drops exhausted flows from the live-flow index as it scans.
  void pending_cell_dsts(Time now, Time cell_interval, std::size_t limit,
                         PendingScratch* scratch, std::vector<NodeId>* out);

  /// True if any flow still has cells not yet moved out of LOCAL
  /// (regardless of injection pacing).
  [[nodiscard]] bool has_unfinished_flows() const {
    return unfinished_flows_ > 0;
  }

  /// On grant receipt: takes the oldest pending cell for `dst` out of
  /// LOCAL. Returns nullopt if no such cell exists (grant is released).
  std::optional<Cell> take_cell_for(NodeId dst, Time now, Time cell_interval);

  /// Takes the oldest pending cell for *any* destination (ideal /
  /// scheduler-less spraying mode). Returns nullopt when LOCAL is empty.
  std::optional<Cell> take_any_cell(Time now, Time cell_interval);

  /// Aborts every LOCAL flow matching `pred` (its destination died, or this
  /// node itself fail-stopped): remaining cells are removed from LOCAL
  /// without ever being injected. Returns the ids of the aborted flows.
  std::vector<FlowId> abort_flows_where(
      const std::function<bool(const LocalFlow&)>& pred);

  // ---- retransmission queue (source role, §4.5 loss recovery) -----------

  /// Re-queues a timed-out granted cell for retransmission. Retx cells are
  /// served before LOCAL by take_cell_for / pending_cell_dsts, so the next
  /// grant towards their destination re-covers the loss first.
  void push_retx(const Cell& c);
  [[nodiscard]] std::int64_t retx_total() const { return retx_total_; }
  [[nodiscard]] std::int32_t retx_depth(NodeId dst) const {
    return static_cast<std::int32_t>(retx_.size(static_cast<std::size_t>(dst)));
  }

  // ---- failover queue surgery (§4.5) -------------------------------------

  /// Drops every queued cell destined to `dst` (the destination rack
  /// died). VQ cells still hold a grant at their — alive — intermediate,
  /// so `on_vq_purge` is invoked with that intermediate for each; the
  /// caller must release the grant there. Returns the cells dropped.
  std::int64_t purge_dst(NodeId dst,
                         const std::function<void(NodeId)>& on_vq_purge);

  /// Empties every VQ, FQ and retx queue (this node fail-stopped; its
  /// buffers are gone). Returns the cells dropped.
  std::int64_t purge_all_queues();

  // ---- virtual queues towards intermediates (source role) ---------------

  void push_vq(NodeId intermediate, const Cell& c);
  std::optional<Cell> pop_vq(NodeId intermediate);
  [[nodiscard]] bool vq_empty(NodeId intermediate) const {
    return queues_.empty(vq_list(intermediate));
  }
  [[nodiscard]] std::int32_t vq_depth(NodeId intermediate) const {
    return static_cast<std::int32_t>(queues_.size(vq_list(intermediate)));
  }

  // ---- forward queues per destination (intermediate role) ---------------

  void push_fq(NodeId dst, const Cell& c);
  std::optional<Cell> pop_fq(NodeId dst);
  [[nodiscard]] bool fq_empty(NodeId dst) const {
    return queues_.empty(fq_list(dst));
  }
  [[nodiscard]] std::int32_t fq_depth(NodeId dst) const {
    return static_cast<std::int32_t>(queues_.size(fq_list(dst)));
  }

  // ---- occupancy bitmap (transmit) ---------------------------------------

  /// True iff the FQ or the VQ towards `peer` holds a cell, i.e. a
  /// request/grant transmit to `peer` has something to send. One bit per
  /// peer, kept current by every push and pop and rebuilt by the bulk
  /// queue surgery and restore; derived state, never serialized.
  [[nodiscard]] bool occupied(NodeId peer) const {
    const auto p = static_cast<std::size_t>(peer);
    return ((occupied_[p / 64] >> (p % 64)) & 1u) != 0;
  }

  // ---- accounting --------------------------------------------------------

  /// Number of destination slots the per-dst queues span (= node count);
  /// lets auditors sweep every (node, dst) pair without knowing the config.
  [[nodiscard]] std::size_t queue_span() const { return retx_.lists(); }

  /// Slots held by this node's queue pools (sim::WorkCounters::queue_slots):
  /// the sum of each pool's peak live entry count.
  [[nodiscard]] std::size_t queue_slots() const {
    return queues_.slots() + retx_.slots() + per_dst_.slots() +
           spray_ready_.slots();
  }

  /// Peak data held in this node's VQs + FQs (Fig. 10c).
  [[nodiscard]] DataSize peak_queue() const { return gauge_.peak(); }
  [[nodiscard]] DataSize current_queue() const { return gauge_.current(); }

  /// Checkpoint: LOCAL flows and their per-dst index, the spray
  /// rotation, every VQ/FQ/retx queue cell-by-cell, the congestion-control
  /// state and the occupancy gauge — the complete data-plane state of this
  /// node.
  void serialize(ckpt::Writer& w) const;
  /// Checks each queued cell's destination rack; the caller checks its flow
  /// (see for_each_queued_cell).
  bool restore(ckpt::Reader& r);

  /// Calls `f(cell)` for every cell in this node's VQs, FQs and
  /// retransmission queues.
  template <typename F>
  void for_each_queued_cell(F&& f) const {
    for (std::size_t l = 0; l < queues_.lists(); ++l) queues_.for_each(l, f);
    for (std::size_t l = 0; l < retx_.lists(); ++l) retx_.for_each(l, f);
  }

 private:
  LocalFlow* oldest_pending_flow_for(NodeId dst, Time now, Time cell_interval);
  Cell cut_cell(LocalFlow& f);
  // The FQ and VQ towards one peer are adjacent lists of `queues_`, so
  // their headers sit side by side: transmit pops one and tests both for
  // the occupancy bit.
  static std::size_t fq_list(NodeId peer) {
    return 2 * static_cast<std::size_t>(peer);
  }
  static std::size_t vq_list(NodeId peer) { return fq_list(peer) + 1; }
  void mark_occupied(NodeId peer) {
    const auto p = static_cast<std::size_t>(peer);
    occupied_[p / 64] |= std::uint64_t{1} << (p % 64);
  }
  /// Clears `peer`'s bit once both of its queues are empty.
  void update_occupied(NodeId peer) {
    if (fq_empty(peer) && vq_empty(peer)) {
      const auto p = static_cast<std::size_t>(peer);
      occupied_[p / 64] &= ~(std::uint64_t{1} << (p % 64));
    }
  }
  void rebuild_occupied();
  /// Index of the first LOCAL flow not yet exhausted (local_.size() if
  /// none): the FIFO cursor a checkpoint records.
  [[nodiscard]] std::size_t first_unfinished() const;

  NodeId self_;
  cc::RequestGrantNode cc_;
  DataSize cell_capacity_;

  // FIFO by arrival; never popped
  std::vector<LocalFlow> local_;
  // Indices into local_ of the flows not yet exhausted, in arrival order;
  // may still hold flows exhausted since the last pending_cell_dsts scan.
  // Derived from local_, never serialized.
  std::vector<std::uint32_t> live_;
  // per destination: indices into local_
  PooledQueues<std::uint32_t> per_dst_;
  std::int64_t unfinished_flows_ = 0;
  // RR rotation for take_any_cell (one list)
  PooledQueues<std::uint32_t> spray_ready_;

  // FQ and VQ per peer (fq_list / vq_list)
  PooledQueues<Cell> queues_;
  // per destination, served first
  PooledQueues<Cell> retx_;
  // bit p: the FQ or VQ towards p holds a cell
  std::vector<std::uint64_t> occupied_;
  std::int64_t retx_total_ = 0;
  stats::ByteGauge gauge_;
};

// The queue operations are the transmit kernel's per-cell work, defined
// here so the slot loop inlines them.

inline void Node::push_vq(NodeId intermediate, const Cell& c) {
  queues_.push(vq_list(intermediate), c);
  mark_occupied(intermediate);
  gauge_.add(cell_capacity_);
}

inline std::optional<Cell> Node::pop_vq(NodeId intermediate) {
  const std::size_t l = vq_list(intermediate);
  if (queues_.empty(l)) return std::nullopt;
  Cell c = queues_.front(l);
  queues_.pop(l);
  update_occupied(intermediate);
  gauge_.remove(cell_capacity_);
  return c;
}

inline void Node::push_fq(NodeId dst, const Cell& c) {
  queues_.push(fq_list(dst), c);
  mark_occupied(dst);
  gauge_.add(cell_capacity_);
}

inline std::optional<Cell> Node::pop_fq(NodeId dst) {
  const std::size_t l = fq_list(dst);
  if (queues_.empty(l)) return std::nullopt;
  Cell c = queues_.front(l);
  queues_.pop(l);
  update_occupied(dst);
  gauge_.remove(cell_capacity_);
  return c;
}

}  // namespace sirius::node
