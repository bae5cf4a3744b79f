#include "ctrl/peer_health.hpp"

#include <algorithm>
#include <bit>

#include "common/invariant.hpp"

namespace sirius::ctrl {

PeerHealth::PeerHealth(std::int32_t peers, std::int32_t miss_threshold)
    : threshold_(miss_threshold),
      misses_(static_cast<std::size_t>(peers), 0),
      declared_(static_cast<std::size_t>(peers), 0) {
  SIRIUS_INVARIANT(peers >= 1, "PeerHealth needs at least one peer, got %d",
                   peers);
  SIRIUS_INVARIANT(miss_threshold >= 1,
                   "miss_threshold must be >= 1, got %d", miss_threshold);
}

void PeerHealth::record_hit(NodeId peer) {
  SIRIUS_INVARIANT(peer >= 0 && peer < peers(),
                   "PeerHealth hit for peer %d outside [0, %d)", peer,
                   peers());
  if (peer < 0 || peer >= peers()) return;
  misses_[static_cast<std::size_t>(peer)] = 0;
  declared_[static_cast<std::size_t>(peer)] = 0;
}

bool PeerHealth::record_miss(NodeId peer) {
  SIRIUS_INVARIANT(peer >= 0 && peer < peers(),
                   "PeerHealth miss for peer %d outside [0, %d)", peer,
                   peers());
  if (peer < 0 || peer >= peers()) return false;
  const auto i = static_cast<std::size_t>(peer);
  ++stat_misses_;
  if (declared_[i] != 0) return false;  // already convicted; run saturates
  if (++misses_[i] >= threshold_) {
    declared_[i] = 1;
    ++stat_declarations_;
    return true;
  }
  return false;
}

bool PeerHealth::declared(NodeId peer) const {
  if (peer < 0 || peer >= peers()) return false;
  return declared_[static_cast<std::size_t>(peer)] != 0;
}

std::int32_t PeerHealth::misses(NodeId peer) const {
  if (peer < 0 || peer >= peers()) return 0;
  return misses_[static_cast<std::size_t>(peer)];
}

void PeerHealth::reset(NodeId peer) {
  SIRIUS_INVARIANT(peer >= 0 && peer < peers(),
                   "PeerHealth reset for peer %d outside [0, %d)", peer,
                   peers());
  if (peer < 0 || peer >= peers()) return;
  misses_[static_cast<std::size_t>(peer)] = 0;
  declared_[static_cast<std::size_t>(peer)] = 0;
}

MembershipView::MembershipView(std::int32_t racks, NodeId owner,
                               std::int32_t quorum)
    : racks_(racks),
      owner_(owner),
      quorum_(quorum),
      versions_(static_cast<std::size_t>(racks) *
                static_cast<std::size_t>(racks)),
      down_((versions_.size() + 63) / 64, 0),
      down_votes_(static_cast<std::size_t>(racks), 0),
      merged_rev_(static_cast<std::size_t>(racks), 0) {
  SIRIUS_INVARIANT(racks >= 2, "MembershipView needs >= 2 racks, got %d",
                   racks);
  SIRIUS_INVARIANT(owner >= 0 && owner < racks,
                   "MembershipView owner %d outside [0, %d)", owner, racks);
  SIRIUS_INVARIANT(quorum >= 1 && quorum < racks,
                   "MembershipView quorum %d outside [1, %d)", quorum, racks);
}

void MembershipView::set_down(std::size_t i, bool down) {
  if (down_at(i) == down) return;
  down_[i / 64] ^= std::uint64_t{1} << (i % 64);
  downs_ += down ? 1 : -1;
}

void MembershipView::recount() {
  std::fill(down_votes_.begin(), down_votes_.end(), 0);
  downs_ = 0;
  const auto racks = static_cast<std::size_t>(racks_);
  for (std::size_t w = 0; w < down_.size(); ++w) {
    for (std::uint64_t bits = down_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t i = w * 64 + static_cast<std::size_t>(
                                         std::countr_zero(bits));
      ++down_votes_[i % racks];
      ++downs_;
    }
  }
}

void MembershipView::report_link(NodeId peer, bool down) {
  SIRIUS_INVARIANT(peer >= 0 && peer < racks_,
                   "link report about peer %d outside [0, %d)", peer, racks_);
  if (peer < 0 || peer >= racks_) return;
  const std::size_t i = idx(owner_, peer);
  if (down_at(i) == down) return;
  set_down(i, down);
  ++versions_[i];
  down_votes_[static_cast<std::size_t>(peer)] += down ? 1 : -1;
  ++revision_;
}

bool MembershipView::merge_from(const MembershipView& other,
                                std::int64_t* rows_walked) {
  SIRIUS_INVARIANT(other.racks_ == racks_,
                   "merging views of different fabrics (%d vs %d racks)",
                   other.racks_, racks_);
  if (other.racks_ != racks_) return false;
  const auto from = static_cast<std::size_t>(other.owner_);
  if (merged_rev_[from] == other.revision_) return false;  // nothing new
  const auto racks = static_cast<std::size_t>(racks_);
  bool changed = false;
  for (NodeId obs = 0; obs < racks_; ++obs) {
    if (obs == owner_) continue;  // sole writer of our own row
    const std::size_t row = idx(obs, 0);
    const std::uint32_t* theirs = other.versions_.data() + row;
    std::uint32_t* ours = versions_.data() + row;
    // Most rows hold nothing newer: find out in one branch-free pass.
    std::uint32_t newer = 0;
    for (std::size_t p = 0; p < racks; ++p) {
      newer |= theirs[p] > ours[p] ? 1u : 0u;
    }
    if (newer == 0) continue;
    if (rows_walked != nullptr) ++*rows_walked;
    for (std::size_t p = 0; p < racks; ++p) {
      if (theirs[p] <= ours[p]) continue;
      const bool down = other.down_at(row + p);
      if (down != down_at(row + p)) {
        down_votes_[p] += down ? 1 : -1;
        set_down(row + p, down);
      }
      ours[p] = theirs[p];
    }
    changed = true;
  }
  merged_rev_[from] = other.revision_;
  if (changed) ++revision_;
  return changed;
}

bool MembershipView::link_down(NodeId observer, NodeId peer) const {
  if (observer < 0 || observer >= racks_ || peer < 0 || peer >= racks_) {
    return false;
  }
  return down_at(idx(observer, peer));
}

bool MembershipView::node_down(NodeId node) const {
  if (node < 0 || node >= racks_) return false;
  std::int32_t votes = down_votes_[static_cast<std::size_t>(node)];
  // A node's opinion of its own inbound links is not a vote against it.
  if (down_at(idx(node, node))) --votes;
  return votes >= quorum_;
}

std::vector<NodeId> MembershipView::down_set() const {
  std::vector<NodeId> out;
  for (NodeId n = 0; n < racks_; ++n) {
    if (node_down(n)) out.push_back(n);
  }
  return out;
}

void MembershipView::admit(NodeId node) {
  SIRIUS_INVARIANT(node >= 0 && node < racks_,
                   "admit of node %d outside [0, %d)", node, racks_);
  if (node < 0 || node >= racks_) return;
  for (NodeId other = 0; other < racks_; ++other) {
    // (node, node) sits on both lines and is bumped twice.
    for (const std::size_t i : {idx(other, node), idx(node, other)}) {
      set_down(i, false);
      ++versions_[i];  // stale piggybacked copies must lose future merges
    }
  }
  recount();
  ++revision_;
}

void PeerHealth::serialize(ckpt::Writer& w) const {
  w.i32(threshold_);
  w.vec_i32(misses_);
  w.vec_u8(declared_);
  w.i64(stat_misses_);
  w.i64(stat_declarations_);
}

bool PeerHealth::restore(ckpt::Reader& r) {
  const std::int32_t threshold = r.i32();
  auto misses = r.vec_i32("peer-health miss runs");
  auto declared = r.vec_u8("peer-health declarations");
  const std::int64_t stat_misses = r.i64();
  const std::int64_t stat_declarations = r.i64();
  if (!r.ok()) return false;
  if (threshold < 1 || misses.size() != declared.size() ||
      stat_misses < 0 || stat_declarations < 0) {
    r.fail("peer-health state out of range");
    return false;
  }
  for (const std::int32_t m : misses) {
    if (m < 0 || m > threshold) {
      r.fail("peer-health miss run outside [0, threshold]");
      return false;
    }
  }
  threshold_ = threshold;
  misses_ = std::move(misses);
  declared_ = std::move(declared);
  stat_misses_ = stat_misses;
  stat_declarations_ = stat_declarations;
  return true;
}

void MembershipView::serialize(ckpt::Writer& w) const {
  w.i32(racks_);
  w.i32(owner_);
  w.i32(quorum_);
  w.u64(revision_);
  w.u64(versions_.size());
  for (std::size_t i = 0; i < versions_.size(); ++i) {
    w.u32(versions_[i]);
    w.u8(down_at(i) ? 1 : 0);
  }
  w.vec_i32(down_votes_);
  w.vec_u64(merged_rev_);
}

bool MembershipView::restore(ckpt::Reader& r) {
  const std::int32_t racks = r.i32();
  const NodeId owner = r.i32();
  const std::int32_t quorum = r.i32();
  const std::uint64_t revision = r.u64();
  const std::size_t n_links = r.count(5, "membership link matrix");
  if (!r.ok()) return false;
  const auto racks_sz = static_cast<std::size_t>(racks > 0 ? racks : 0);
  if (racks < 1 || owner < 0 || owner >= racks || quorum < 1 ||
      revision == 0 || n_links != racks_sz * racks_sz) {
    r.fail("membership view geometry out of range");
    return false;
  }
  racks_ = racks;
  owner_ = owner;
  quorum_ = quorum;
  revision_ = revision;
  // count() has checked that the 5-byte entries are all there.
  const std::string_view links = r.raw_bytes(n_links * 5, "membership links");
  if (!r.ok()) return false;
  versions_.resize(n_links);
  down_.assign((n_links + 63) / 64, 0);
  std::uint8_t verdicts = 0;  // OR of every verdict byte
  for (std::size_t i = 0; i < n_links; ++i) {
    const char* entry = links.data() + i * 5;
    versions_[i] = ckpt::detail::load_le<std::uint32_t>(entry);
    const auto verdict = static_cast<std::uint8_t>(entry[4]);
    verdicts |= verdict;
    down_[i / 64] |= std::uint64_t{verdict & 1u} << (i % 64);
  }
  if (verdicts > 1) {
    r.fail("membership link verdict is neither 0 nor 1");
    return false;
  }
  const auto down_votes = r.vec_i32("membership down votes");
  merged_rev_ = r.vec_u64("membership merge cursors");
  if (!r.ok()) return false;
  if (down_votes.size() != racks_sz || merged_rev_.size() != racks_sz) {
    r.fail("membership view geometry out of range");
    return false;
  }
  down_votes_.resize(racks_sz);
  recount();
  if (down_votes != down_votes_) {
    r.fail("membership vote tally disagrees with the link verdicts");
    return false;
  }
  return true;
}

}  // namespace sirius::ctrl
