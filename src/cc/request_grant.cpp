#include "cc/request_grant.hpp"

#include <cassert>

#include "common/invariant.hpp"

namespace sirius::cc {

RequestGrantNode::RequestGrantNode(NodeId self, const RequestGrantConfig& cfg)
    : self_(self), cfg_(cfg) {
  SIRIUS_INVARIANT(cfg_.nodes >= 2, "request/grant over %d nodes", cfg_.nodes);
  SIRIUS_INVARIANT(cfg_.queue_limit >= 2,
                   "Q=%d < 2 can deadlock the relay (see §4.3)",
                   cfg_.queue_limit);
  outstanding_.assign(static_cast<std::size_t>(cfg_.nodes), 0);
  picked_this_epoch_.assign(static_cast<std::size_t>(cfg_.nodes), 0);
  intermediate_pool_.reserve(static_cast<std::size_t>(cfg_.nodes));
  pool_pos_.assign(static_cast<std::size_t>(cfg_.nodes), -1);
  excluded_.assign(static_cast<std::size_t>(cfg_.nodes), 0);
  // Pre-size the per-slot request inbox: at most one piggybacked request
  // per peer per slot, so the per-slot receive path never reallocates.
  inbox_.reserve(static_cast<std::size_t>(cfg_.nodes));
}

void RequestGrantNode::shuffle_inbox(Rng& rng) {
  // Fisher–Yates so the per-destination pick below is uniform among the
  // requests for that destination.
  for (std::size_t i = inbox_.size(); i > 1; --i) {
    const std::size_t j = rng.below(i);
    std::swap(inbox_[i - 1], inbox_[j]);
  }
}

void RequestGrantNode::pool_remove(NodeId n) {
  const std::int32_t pos = pool_pos_[static_cast<std::size_t>(n)];
  assert(pos >= 0);
  const NodeId last = intermediate_pool_.back();
  intermediate_pool_[static_cast<std::size_t>(pos)] = last;
  pool_pos_[static_cast<std::size_t>(last)] = pos;
  intermediate_pool_.pop_back();
  pool_pos_[static_cast<std::size_t>(n)] = -1;
}

void RequestGrantNode::serialize(ckpt::Writer& w) const {
  w.u64(inbox_.size());
  for (const Request& req : inbox_) {
    w.i32(req.src);
    w.i32(req.dst);
  }
  w.vec_i32(outstanding_);
  w.vec_u8(excluded_);
  w.i64(stat_requests_);
  w.i64(stat_grants_);
  w.i64(stat_denied_q_);
  w.i64(stat_releases_);
}

bool RequestGrantNode::restore(ckpt::Reader& r) {
  const std::size_t n_inbox = r.count(8, "request inbox");
  std::vector<Request> inbox(n_inbox);
  for (Request& req : inbox) {
    req.src = r.i32();
    req.dst = r.i32();
  }
  auto outstanding = r.vec_i32("outstanding grants");
  auto excluded = r.vec_u8("exclusion flags");
  const std::int64_t stat_requests = r.i64();
  const std::int64_t stat_grants = r.i64();
  const std::int64_t stat_denied = r.i64();
  const std::int64_t stat_releases = r.i64();
  if (!r.ok()) return false;
  const auto nodes = static_cast<std::size_t>(cfg_.nodes);
  if (outstanding.size() != nodes || excluded.size() != nodes ||
      stat_requests < 0 || stat_grants < 0 || stat_denied < 0 ||
      stat_releases < 0) {
    r.fail("request/grant state does not match this run's node count");
    return false;
  }
  for (const Request& req : inbox) {
    if (req.src < 0 || req.src >= cfg_.nodes || req.dst < 0 ||
        req.dst >= cfg_.nodes) {
      r.fail("buffered request outside the node range");
      return false;
    }
  }
  for (const std::int32_t out : outstanding) {
    if (out < 0 || out > cfg_.queue_limit) {
      r.fail("outstanding grant counter outside [0, Q]");
      return false;
    }
  }
  inbox_ = std::move(inbox);
  outstanding_ = std::move(outstanding);
  excluded_ = std::move(excluded);
  stat_requests_ = stat_requests;
  stat_grants_ = stat_grants;
  stat_denied_q_ = stat_denied;
  stat_releases_ = stat_releases;
  return true;
}

}  // namespace sirius::cc
