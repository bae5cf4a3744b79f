// Shared in-band failure-detection state (§4.5).
//
// Because the cyclic schedule reconnects every node pair once per round,
// failure detection needs no probes: every expected burst that does not
// arrive is evidence. Two small pieces implement the paper's mechanism and
// are shared by the round-granularity ctrl::FailureDetectorSim and the
// packet-level sim::SiriusSim so there is exactly one detector:
//
//   * PeerHealth — one observer's consecutive-miss counters, one per peer.
//     `miss_threshold` consecutive missed bursts declare the peer's link
//     dead; a single heard burst resets the run (this is what lets the
//     same code catch grey links: a p-loss link needs a geometric-tail
//     run of misses, so detection latency grows as loss falls).
//
//   * MembershipView — one node's versioned opinion matrix over directed
//     links, merged peer-to-peer by piggybacking on every outgoing cell.
//     Each observer is the only writer of its own row ("I stopped hearing
//     X"); rows merge by version so stale third-hand reports never
//     overwrite fresher ones. A node counts as *down* when at least
//     `quorum` distinct observers report its transmissions lost — so one
//     locally-grey link cannot evict a healthy rack, but a silent rack is
//     convicted by everyone at once.
#pragma once

#include <cstdint>
#include <vector>

#include "ckpt/io.hpp"
#include "common/units.hpp"

namespace sirius::ctrl {

/// One observer's consecutive-miss run per peer (the §4.5 detector).
class PeerHealth {
 public:
  PeerHealth(std::int32_t peers, std::int32_t miss_threshold);

  /// An expected burst from `peer` arrived: the miss run resets.
  void record_hit(NodeId peer);

  /// An expected burst from `peer` did not arrive. Returns true exactly
  /// when this miss is the `miss_threshold`-th consecutive one — i.e. the
  /// moment this observer declares the peer's link dead.
  bool record_miss(NodeId peer);

  /// Has this observer's miss run for `peer` crossed the threshold (and
  /// not been reset by a hit or reset() since)?
  [[nodiscard]] bool declared(NodeId peer) const;

  [[nodiscard]] std::int32_t misses(NodeId peer) const;
  [[nodiscard]] std::int32_t threshold() const { return threshold_; }
  /// Cumulative misses recorded over this detector's lifetime (telemetry;
  /// unlike misses(), never reset by a hit).
  [[nodiscard]] std::int64_t stat_misses() const { return stat_misses_; }
  /// Link-down declarations this observer has made (threshold crossings).
  [[nodiscard]] std::int64_t stat_declarations() const {
    return stat_declarations_;
  }
  [[nodiscard]] std::int32_t peers() const {
    return static_cast<std::int32_t>(misses_.size());
  }

  /// Forget everything about `peer` (administrative rejoin).
  void reset(NodeId peer);

  /// Checkpoint: miss runs, declarations and lifetime stats, so a
  /// restored detector is mid-run exactly where the original was.
  void serialize(ckpt::Writer& w) const;
  bool restore(ckpt::Reader& r);

 private:
  std::int32_t threshold_;
  std::vector<std::int32_t> misses_;
  std::vector<std::uint8_t> declared_;
  std::int64_t stat_misses_ = 0;
  std::int64_t stat_declarations_ = 0;
};

/// One node's view of every directed link, merged in-band (§4.5
/// "failed-set piggybacked on every outgoing cell").
class MembershipView {
 public:
  /// `quorum`: distinct observers required to convict a node (>= 1).
  MembershipView(std::int32_t racks, NodeId owner, std::int32_t quorum);

  /// The owner's own verdict about the link peer -> owner. Bumps the
  /// entry's version so the report wins every future merge against older
  /// opinions. No-op if the verdict is unchanged.
  void report_link(NodeId peer, bool down);

  /// Folds another node's view into this one: for every directed link the
  /// higher version wins. Returns true when anything changed. O(1) when
  /// `other` has not changed since the last merge from the same owner;
  /// otherwise one branch-free version compare per row, and an entry walk
  /// only in the rows where `other` holds a newer version. Each row walked
  /// adds one to `*rows_walked` if it is non-null.
  bool merge_from(const MembershipView& other,
                  std::int64_t* rows_walked = nullptr);

  /// The owner's verdict about the link peer -> owner, as last reported.
  [[nodiscard]] bool link_down(NodeId observer, NodeId peer) const;

  /// Does any observer currently report any link lost? When not, no
  /// link_down() and no node_down() query can answer true.
  [[nodiscard]] bool any_link_down() const { return downs_ != 0; }

  /// Quorum-derived node status: down when at least `quorum` observers
  /// (excluding the node itself) currently report its transmissions lost.
  [[nodiscard]] bool node_down(NodeId node) const;

  /// All nodes currently down per node_down(), ascending.
  [[nodiscard]] std::vector<NodeId> down_set() const;

  /// Administrative rejoin of `node`: clears every verdict *by* and
  /// *about* it, with version bumps so stale piggybacked copies of the
  /// old verdicts lose every future merge. Called on all views at one
  /// round boundary by the control plane (§4.5 leaves rejoin to
  /// provisioning; in-band rejoin is impossible because a non-member has
  /// no schedule slots).
  void admit(NodeId node);

  [[nodiscard]] NodeId owner() const { return owner_; }
  [[nodiscard]] std::int32_t racks() const { return racks_; }
  [[nodiscard]] std::int32_t quorum() const { return quorum_; }

  /// Monotone revision: bumps on every observable change. Equal revisions
  /// from the same owner mean identical content (merge short-circuit).
  [[nodiscard]] std::uint64_t revision() const { return revision_; }

  /// Checkpoint: the full versioned opinion matrix, vote tallies and
  /// merge short-circuit cursors (revisions included — they decide future
  /// merge outcomes, so they must survive a restore bit-exactly). Each
  /// entry is a u32 version then a u8 verdict; restore rejects a verdict
  /// other than 0 or 1 and a vote tally that disagrees with the verdicts.
  void serialize(ckpt::Writer& w) const;
  bool restore(ckpt::Reader& r);

 private:
  [[nodiscard]] std::size_t idx(NodeId observer, NodeId peer) const {
    return static_cast<std::size_t>(observer) * static_cast<std::size_t>(racks_) +
           static_cast<std::size_t>(peer);
  }
  [[nodiscard]] bool down_at(std::size_t i) const {
    return ((down_[i / 64] >> (i % 64)) & 1u) != 0;
  }
  void set_down(std::size_t i, bool down);
  /// Recounts down_votes_ and downs_ from the verdict bits.
  void recount();

  std::int32_t racks_;
  NodeId owner_;
  std::int32_t quorum_;
  std::uint64_t revision_ = 1;
  // Observer-major racks x racks matrices: each entry's version, and its
  // verdict as one bit (set = the observer reports the link lost).
  std::vector<std::uint32_t> versions_;
  std::vector<std::uint64_t> down_;
  std::int64_t downs_ = 0;                 // bits set in down_
  std::vector<std::int32_t> down_votes_;   // per node: observers convicting it
  std::vector<std::uint64_t> merged_rev_;  // last revision merged, per owner
};

}  // namespace sirius::ctrl
