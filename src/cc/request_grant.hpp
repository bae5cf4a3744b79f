// Sirius congestion control (§4.3, Fig. 15): a distributed, DRRM-like
// request/grant protocol that bounds queuing at intermediate nodes.
//
// Queuing arises when several nodes relay cells for the same destination D
// through the same intermediate I during one epoch: I can forward only one
// cell to D per epoch, so the rest wait. The protocol caps that backlog at
// Q cells per (intermediate, destination):
//
//   * Every epoch, a source sends at most one REQUEST to each intermediate
//     (picked uniformly at random per queued cell) asking to relay a cell
//     for some destination D.
//   * Every epoch, each intermediate picks one request per destination D
//     (uniformly among those received last epoch) and GRANTS it iff
//     queued(D) + outstanding_grants(D) < Q.
//   * A grant moves one cell for D from the source's LOCAL buffer into the
//     virtual queue towards I, to be transmitted at the next (source, I)
//     slot. If the source no longer holds a cell for D, it releases the
//     grant so the intermediate's accounting stays exact.
//
// Requests, grants and releases are piggybacked on the cyclic cells, so the
// protocol adds no network overhead — only an initial epoch of latency.
//
// This class is the per-node protocol state machine; the simulator moves
// the message lists between nodes and owns the actual cell queues.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ckpt/io.hpp"
#include "common/invariant.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace sirius::cc {

/// A request: `src` asks the receiving intermediate for permission to relay
/// one cell destined to `dst`.
struct Request {
  NodeId src;
  NodeId dst;
};

/// A grant: intermediate `intermediate` permits source `to` to send one
/// cell for `dst` through it.
struct Grant {
  NodeId intermediate;
  NodeId to;
  NodeId dst;
};

/// How a source spreads its per-cell requests over intermediates.
enum class SpreadPolicy {
  /// Uniformly random (the literal reading of §4.3). Single-shot random
  /// matching loses ~1-1/e of grant opportunities to destination
  /// collisions at the intermediates, capping goodput well below the
  /// schedule's capacity at high load.
  kRandom,
  /// DRRM-style desynchronised assignment: the first request for each
  /// distinct destination D goes to intermediate (D + self + epoch) mod N,
  /// which rotates over epochs (fairness, like DRRM's round-robin
  /// pointers) and guarantees that the first-choice requests arriving at
  /// any intermediate all carry distinct destinations — eliminating the
  /// collision loss. Additional cells for an already-requested D fall back
  /// to random unused intermediates.
  kDesynchronized,
};

struct RequestGrantConfig {
  std::int32_t nodes = 0;       ///< total nodes in the network
  std::int32_t queue_limit = 4; ///< Q: max cells queued per destination
  SpreadPolicy spread = SpreadPolicy::kDesynchronized;
};

/// Per-node protocol state (both roles: source and intermediate).
class RequestGrantNode {
 public:
  RequestGrantNode(NodeId self, const RequestGrantConfig& cfg);

  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] std::int32_t queue_limit() const { return cfg_.queue_limit; }

  // ---- intermediate role -------------------------------------------------

  /// Buffers a request received during the current epoch.
  void receive_request(const Request& r) {
    SIRIUS_INVARIANT(r.dst >= 0 && r.dst < cfg_.nodes && r.src >= 0 &&
                         r.src < cfg_.nodes,
                     "request %d -> %d outside the %d-node network", r.src,
                     r.dst, cfg_.nodes);
    if (r.dst < 0 || r.dst >= cfg_.nodes || r.src < 0 || r.src >= cfg_.nodes) {
      return;
    }
    inbox_.push_back(r);
  }

  /// Epoch boundary: selects one buffered request per destination at
  /// random and issues grants subject to the queue bound, replacing the
  /// contents of `*grants` (the caller's reused scratch).
  /// `queued_for(dst)` must return the current relay-queue depth for dst.
  template <typename QueuedFn>
  void issue_grants(QueuedFn&& queued_for, Rng& rng,
                    std::vector<Grant>* grants) {
    shuffle_inbox(rng);
    grants->clear();
    for (const Request& r : inbox_) {
      // Never grant towards, or to, a node this intermediate believes dead
      // (§4.5): the cell would blackhole on arrival. Stale requests from a
      // source excluded after it asked are dropped the same way.
      if (excluded_[static_cast<std::size_t>(r.dst)] != 0 ||
          excluded_[static_cast<std::size_t>(r.src)] != 0) {
        continue;
      }
      if (picked_this_epoch_[static_cast<std::size_t>(r.dst)]) continue;
      picked_this_epoch_[static_cast<std::size_t>(r.dst)] = true;
      auto& out = outstanding_[static_cast<std::size_t>(r.dst)];
      if (queued_for(r.dst) + out < cfg_.queue_limit) {
        ++out;
        SIRIUS_INVARIANT(out <= cfg_.queue_limit,
                         "node %d: %d outstanding grants for dst %d exceed "
                         "Q=%d",
                         self_, out, r.dst, cfg_.queue_limit);
        grants->push_back(Grant{self_, r.src, r.dst});
        ++stat_grants_;
      } else {
        ++stat_denied_q_;
      }
    }
    stat_requests_ += static_cast<std::int64_t>(inbox_.size());
    for (const Request& r : inbox_) {
      picked_this_epoch_[static_cast<std::size_t>(r.dst)] = false;
    }
    inbox_.clear();
  }

  /// A granted cell arrived and was enqueued for `dst`. Every grant is
  /// settled exactly once (cell arrival or release), so the outstanding
  /// counter must be positive here — an underflow means double accounting.
  void on_granted_cell_arrival(NodeId dst) {
    auto& out = outstanding_[static_cast<std::size_t>(dst)];
    SIRIUS_INVARIANT(out > 0,
                     "node %d: grant accounting underflow for dst %d", self_,
                     dst);
    if (out > 0) --out;
  }

  /// The source released an unusable grant for `dst`. Unlike cell arrival,
  /// duplicate releases are part of the contract (a source may redundantly
  /// release), so this clamps at zero instead of auditing.
  void on_grant_release(NodeId dst) {
    auto& out = outstanding_[static_cast<std::size_t>(dst)];
    if (out > 0) --out;
    ++stat_releases_;
  }

  /// Marks `node` as failed: it is never chosen as an intermediate again
  /// (§4.5: detected failures are communicated datacenter-wide to prevent
  /// blackholing through the failed relay). Out-of-range ids are an
  /// invariant violation and are ignored on the defensive path.
  void exclude(NodeId node) {
    SIRIUS_INVARIANT(node >= 0 && node < cfg_.nodes,
                     "node %d: exclude of node %d outside the %d-node network",
                     self_, node, cfg_.nodes);
    if (node < 0 || node >= cfg_.nodes) return;
    excluded_[static_cast<std::size_t>(node)] = 1;
  }
  /// Re-admits a previously excluded node (§4.5 recovery: the control
  /// plane re-provisions a repaired rack at a round boundary).
  void include(NodeId node) {
    SIRIUS_INVARIANT(node >= 0 && node < cfg_.nodes,
                     "node %d: include of node %d outside the %d-node network",
                     self_, node, cfg_.nodes);
    if (node < 0 || node >= cfg_.nodes) return;
    excluded_[static_cast<std::size_t>(node)] = 0;
  }
  [[nodiscard]] bool is_excluded(NodeId node) const {
    SIRIUS_INVARIANT(node >= 0 && node < cfg_.nodes,
                     "node %d: is_excluded of node %d outside the %d-node "
                     "network",
                     self_, node, cfg_.nodes);
    if (node < 0 || node >= cfg_.nodes) return false;
    return excluded_[static_cast<std::size_t>(node)] != 0;
  }

  /// Drops all epoch-local protocol state — buffered requests and
  /// outstanding-grant counters — without touching exclusions or stats.
  /// Used when this node itself fail-stops: a rebooted rack must not
  /// inherit grant accounting from before the crash.
  void clear_protocol_state() {
    inbox_.clear();
    std::fill(outstanding_.begin(), outstanding_.end(), 0);
  }

  [[nodiscard]] std::int32_t outstanding(NodeId dst) const {
    return outstanding_[static_cast<std::size_t>(dst)];
  }

  /// Protocol counters (cumulative over the node's lifetime).
  [[nodiscard]] std::int64_t stat_requests_received() const {
    return stat_requests_;
  }
  [[nodiscard]] std::int64_t stat_grants_issued() const { return stat_grants_; }
  [[nodiscard]] std::int64_t stat_denied_queue_bound() const {
    return stat_denied_q_;
  }
  /// Release callbacks received at this intermediate (duplicates included —
  /// redundant releases are part of the contract).
  [[nodiscard]] std::int64_t stat_grants_released() const {
    return stat_releases_;
  }

  // ---- source role -------------------------------------------------------

  /// One outgoing request: ask `intermediate` for permission to relay a
  /// cell destined to `dst`.
  struct OutgoingRequest {
    NodeId intermediate;
    NodeId dst;
  };

  /// Epoch boundary: builds this node's requests for epoch `epoch` into
  /// `*out` (replacing its contents; the caller's reused scratch).
  /// `pending` lists the destination of every cell currently in LOCAL, in
  /// FIFO order (possibly truncated by the caller to nodes-1 entries,
  /// since no more requests than that can be emitted). At most one request
  /// goes to any intermediate; the spread policy picks which (see
  /// SpreadPolicy), and a cell's request may target its own destination
  /// (the "direct" path). `usable(intermediate)` vetoes intermediates the
  /// source cannot serve soon (e.g. a backed-up virtual queue): the source
  /// knows its own queues, so this costs nothing in hardware and keeps
  /// granted-but-unsent backlog bounded. `relay_ok(intermediate, dst)`
  /// vetoes a specific (relay, destination) pair at pick time — the §4.5
  /// membership view uses it to stop requesting a relay whose link
  /// *towards dst* is reported grey, without evicting the relay for the
  /// destinations it still serves. A cell whose random picks are all
  /// vetoed simply re-requests next epoch.
  template <typename UsableFn, typename RelayOkFn>
  void build_requests(const std::vector<NodeId>& pending, std::int64_t epoch,
                      Rng& rng, UsableFn&& usable, RelayOkFn&& relay_ok,
                      std::vector<OutgoingRequest>* out) {
    out->clear();
    if (pending.empty()) return;

    // Candidate intermediates: every alive, serviceable node but ourselves.
    intermediate_pool_.clear();
    for (NodeId n = 0; n < cfg_.nodes; ++n) {
      if (n != self_ && excluded_[static_cast<std::size_t>(n)] == 0 &&
          usable(n)) {
        pool_pos_[static_cast<std::size_t>(n)] =
            static_cast<std::int32_t>(intermediate_pool_.size());
        intermediate_pool_.push_back(n);
      } else {
        pool_pos_[static_cast<std::size_t>(n)] = -1;
      }
    }
    if (intermediate_pool_.empty()) return;

    for (const NodeId dst : pending) {
      if (intermediate_pool_.empty()) break;
      NodeId pick = kInvalidNode;
      if (cfg_.spread == SpreadPolicy::kDesynchronized) {
        // First choice: the rotating, collision-free slot for this
        // destination. If it is ourselves or already used (same-D repeat),
        // fall back to a random unused intermediate below.
        const auto cand = static_cast<NodeId>(
            (static_cast<std::int64_t>(dst) + self_ + epoch) % cfg_.nodes);
        if (cand != self_ && pool_pos_[static_cast<std::size_t>(cand)] >= 0 &&
            relay_ok(cand, dst)) {
          pick = cand;
        }
      }
      if (pick == kInvalidNode) {
        // Rejection-sample a random unused intermediate; when relay_ok
        // never vetoes this is a single draw. A cell whose draws are all
        // vetoed re-requests next epoch.
        for (std::int32_t attempt = 0; attempt < 4; ++attempt) {
          const NodeId cand =
              intermediate_pool_[rng.below(intermediate_pool_.size())];
          if (relay_ok(cand, dst)) {
            pick = cand;
            break;
          }
        }
        if (pick == kInvalidNode) continue;
      }
      pool_remove(pick);
      out->push_back(OutgoingRequest{pick, dst});
    }
  }

  /// Checkpoint: inbox, outstanding-grant counters, exclusions and
  /// lifetime stats. The per-epoch scratch (picked flags, intermediate
  /// pool) is rebuilt from scratch every epoch and is all-zero at the
  /// slot-top checkpoint instant, so it does not travel.
  void serialize(ckpt::Writer& w) const;
  bool restore(ckpt::Reader& r);

 private:
  void shuffle_inbox(Rng& rng);
  void pool_remove(NodeId n);

  NodeId self_;
  RequestGrantConfig cfg_;
  std::vector<Request> inbox_;
  // per destination
  std::vector<std::int32_t> outstanding_;
  // per destination
  std::vector<std::uint8_t> picked_this_epoch_;
  // scratch: unused intermediates
  std::vector<NodeId> intermediate_pool_;
  // node -> index in pool, -1=used
  std::vector<std::int32_t> pool_pos_;
  // failed nodes, never relays
  std::vector<std::uint8_t> excluded_;
  std::int64_t stat_requests_ = 0;
  std::int64_t stat_grants_ = 0;
  std::int64_t stat_denied_q_ = 0;
  std::int64_t stat_releases_ = 0;
};

}  // namespace sirius::cc
