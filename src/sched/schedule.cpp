#include "sched/schedule.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "common/invariant.hpp"

namespace sirius::sched {

CyclicSchedule::CyclicSchedule(std::int32_t nodes, std::int32_t uplinks)
    : nodes_(nodes),
      uplinks_(uplinks),
      slots_per_round_((nodes - 1 + uplinks - 1) / uplinks) {
  SIRIUS_INVARIANT(nodes_ >= 2, "schedule over %d nodes", nodes_);
  SIRIUS_INVARIANT(uplinks_ >= 1, "schedule with %d uplinks", uplinks_);
}

CyclicSchedule::CyclicSchedule(std::vector<NodeId> members,
                               std::int32_t uplinks)
    : nodes_(0),
      uplinks_(uplinks),
      slots_per_round_(0),
      members_(true),
      member_count_(static_cast<std::int32_t>(members.size())),
      member_list_(std::move(members)) {
  SIRIUS_INVARIANT(member_count_ >= 2, "schedule over %d members",
                   member_count_);
  SIRIUS_INVARIANT(uplinks_ >= 1, "schedule with %d uplinks", uplinks_);
  SIRIUS_INVARIANT(
      std::is_sorted(member_list_.begin(), member_list_.end()) &&
          std::adjacent_find(member_list_.begin(), member_list_.end()) ==
              member_list_.end(),
      "schedule member list must be sorted and unique");
  slots_per_round_ = (member_count_ - 1 + uplinks_ - 1) / uplinks_;
  member_index_.assign(
      static_cast<std::size_t>(member_list_.back()) + 1, -1);
  for (std::int32_t i = 0; i < member_count_; ++i) {
    member_index_[static_cast<std::size_t>(member_list_[
        static_cast<std::size_t>(i)])] = i;
  }
}

std::int32_t CyclicSchedule::index_of(NodeId n) const {
  if (!members_) return n >= 0 && n < nodes_ ? n : -1;
  if (n < 0 || static_cast<std::size_t>(n) >= member_index_.size()) return -1;
  return member_index_[static_cast<std::size_t>(n)];
}

NodeId CyclicSchedule::node_at(std::int32_t index) const {
  return members_ ? member_list_[static_cast<std::size_t>(index)]
                  : static_cast<NodeId>(index);
}

bool CyclicSchedule::is_member(NodeId n) const { return index_of(n) >= 0; }

std::int32_t CyclicSchedule::offset_of(UplinkId u, std::int64_t t) const {
  const auto slot_in_round =
      static_cast<std::int32_t>(t % slots_per_round_);
  // Offsets 0 .. N-2 are distributed in *strides* across uplinks: uplink u
  // covers offsets u*R .. u*R+R-1 over the R slots of a round. Within one
  // slot a node's U destinations are therefore spaced ~N/U apart — i.e. in
  // distinct topology blocks — which is what makes the schedule physically
  // realizable with one grating uplink per block. Offsets >= N-1 are idle
  // padding when (N-1) is not a multiple of U.
  return u * slots_per_round_ + slot_in_round;
}

NodeId CyclicSchedule::peer_tx(NodeId src, UplinkId u, std::int64_t t) const {
  assert(u >= 0 && u < uplinks_);
  const std::int32_t s = index_of(src);
  if (s < 0) return kInvalidNode;  // non-member (failed) node: no slots
  const std::int32_t n = nodes();
  const std::int32_t off = offset_of(u, t);
  if (off >= n - 1) return kInvalidNode;
  return node_at((s + 1 + off) % n);
}

NodeId CyclicSchedule::peer_rx(NodeId dst, UplinkId u, std::int64_t t) const {
  assert(u >= 0 && u < uplinks_);
  const std::int32_t d = index_of(dst);
  if (d < 0) return kInvalidNode;
  const std::int32_t n = nodes();
  const std::int32_t off = offset_of(u, t);
  if (off >= n - 1) return kInvalidNode;
  return node_at((d - 1 - off % n + 2 * n) % n);
}

CyclicSchedule::Connection CyclicSchedule::connection(NodeId src,
                                                      NodeId dst) const {
  SIRIUS_INVARIANT(src != dst, "connection(%d, %d) to itself", src, dst);
  const std::int32_t s = index_of(src);
  const std::int32_t d = index_of(dst);
  SIRIUS_INVARIANT(s >= 0 && d >= 0,
                   "connection(%d, %d): both endpoints must be schedule "
                   "members",
                   src, dst);
  if (s < 0 || d < 0 || s == d) return Connection{0, 0};
  const std::int32_t n = nodes();
  const std::int32_t off = (d - s - 1 + 2 * n) % n;
  SIRIUS_INVARIANT(off >= 0 && off < n - 1,
                   "connection(%d, %d): offset %d outside one round", src,
                   dst, off);
  return Connection{off % slots_per_round_, off / slots_per_round_};
}

void CyclicSchedule::serialize(ckpt::Writer& w) const {
  w.b(members_);
  w.i32(uplinks_);
  if (members_) {
    w.u64(member_list_.size());
    for (const NodeId n : member_list_) w.i32(n);
  } else {
    w.i32(nodes_);
  }
}

bool CyclicSchedule::restore(ckpt::Reader& r) {
  const bool members = r.b();
  const std::int32_t uplinks = r.i32();
  if (members) {
    const std::size_t n = r.count(4, "schedule member list");
    std::vector<NodeId> list(n);
    for (auto& m : list) m = r.i32();
    if (!r.ok()) return false;
    if (uplinks < 1 || n < 2 ||
        !std::is_sorted(list.begin(), list.end()) ||
        std::adjacent_find(list.begin(), list.end()) != list.end() ||
        list.front() < 0) {
      r.fail("schedule member list invalid (needs sorted unique NodeIds, "
             ">= 2 members, >= 1 uplink)");
      return false;
    }
    *this = CyclicSchedule(std::move(list), uplinks);
    return true;
  }
  const std::int32_t nodes = r.i32();
  if (!r.ok()) return false;
  if (nodes < 2 || uplinks < 1) {
    r.fail("schedule geometry invalid (needs >= 2 nodes, >= 1 uplink)");
    return false;
  }
  *this = CyclicSchedule(nodes, uplinks);
  return true;
}

void PeerTable::build(const CyclicSchedule& sched, std::int32_t nodes) {
  slots_per_round_ = sched.slots_per_round();
  uplinks_ = sched.uplinks();
  row_size_ =
      static_cast<std::size_t>(nodes) * static_cast<std::size_t>(uplinks_);
  peers_.resize(static_cast<std::size_t>(slots_per_round_) * row_size_);
  std::size_t i = 0;
  for (std::int32_t t = 0; t < slots_per_round_; ++t) {
    for (NodeId s = 0; s < nodes; ++s) {
      for (UplinkId u = 0; u < uplinks_; ++u) {
        peers_[i++] = sched.peer_tx(s, u, t);
      }
    }
  }
}

bool physically_contention_free(const topo::SiriusTopology& topo,
                                const CyclicSchedule& sched) {
  // For each slot of one round, mark every (grating, output port) that
  // carries light; a collision means two inputs of the same grating chose
  // wavelengths that diffract to the same output.
  const std::int32_t gratings = topo.gratings();
  const std::int32_t ports = topo.awgr().ports();
  std::vector<std::int8_t> hit(
      static_cast<std::size_t>(gratings) * static_cast<std::size_t>(ports));
  // Physical uplinks already claimed by a node in the current slot, so that
  // several same-slot destinations in one block are spread over replicas.
  std::vector<std::int8_t> uplink_used(
      static_cast<std::size_t>(topo.nodes()) *
      static_cast<std::size_t>(topo.uplinks_per_node()));

  for (std::int32_t t = 0; t < sched.slots_per_round(); ++t) {
    std::fill(hit.begin(), hit.end(), 0);
    std::fill(uplink_used.begin(), uplink_used.end(), 0);
    for (NodeId s = 0; s < topo.nodes(); ++s) {
      for (UplinkId u = 0; u < sched.uplinks(); ++u) {
        const NodeId dst = sched.peer_tx(s, u, t);
        if (dst == kInvalidNode) continue;
        // The schedule says "s talks to dst in this slot"; physically the
        // cell leaves on the uplink wired towards dst's block, choosing
        // the replica deterministically as (u mod replicas). Two senders
        // that hit the same destination in the same slot always differ by
        // less than `replicas` in schedule-uplink index, so this rule
        // separates them onto distinct gratings.
        const auto candidates = topo.uplinks_towards(s, dst);
        const UplinkId phys = candidates[static_cast<std::size_t>(
            u % static_cast<UplinkId>(candidates.size()))];
        auto& used =
            uplink_used[static_cast<std::size_t>(s) *
                            static_cast<std::size_t>(topo.uplinks_per_node()) +
                        static_cast<std::size_t>(phys)];
        if (used != 0) return false;  // node double-books a physical uplink
        used = 1;
        const auto att = topo.tx_attachment(s, phys);
        const WavelengthId w = topo.wavelength_to(s, phys, dst);
        const std::int32_t out = topo.awgr().route(att.input_port, w);
        auto& cell =
            hit[static_cast<std::size_t>(att.grating) *
                    static_cast<std::size_t>(ports) +
                static_cast<std::size_t>(out)];
        if (cell != 0) return false;
        cell = 1;
      }
    }
  }
  return true;
}

}  // namespace sirius::sched
