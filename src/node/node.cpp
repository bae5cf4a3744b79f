#include "node/node.hpp"

#include <algorithm>
#include <string>

#include "common/invariant.hpp"

namespace sirius::node {

Node::Node(NodeId self, const cc::RequestGrantConfig& cc_cfg,
           DataSize cell_capacity)
    : self_(self), cc_(self, cc_cfg), cell_capacity_(cell_capacity) {
  const auto nodes = static_cast<std::size_t>(cc_cfg.nodes);
  peers_.resize(nodes);
  retx_.resize(nodes);
  per_dst_.resize(nodes);
  occupied_.assign((nodes + 63) / 64, 0);
}

void Node::add_flow(const LocalFlow& f) {
  SIRIUS_INVARIANT(f.total_cells > 0, "flow %lld arrives with %lld cells",
                   static_cast<long long>(f.id),
                   static_cast<long long>(f.total_cells));
  if (f.total_cells <= 0) return;
  local_.push_back(f);
  const std::size_t idx = local_.size() - 1;
  per_dst_[static_cast<std::size_t>(f.dst_node)].push(idx);
  spray_ready_.push(idx);
  ++unfinished_flows_;
}

void Node::pending_cell_dsts(Time now, Time cell_interval, std::size_t limit,
                             PendingScratch* scratch,
                             std::vector<NodeId>* out) const {
  out->clear();

  // Retransmissions first: a lost cell blocks its flow's in-order prefix
  // at the receiver, so re-covering it beats injecting fresh cells.
  if (retx_total_ > 0) {
    for (std::size_t dst = 0; dst < retx_.size() && out->size() < limit;
         ++dst) {
      for (std::size_t k = 0; k < retx_[dst].size() && out->size() < limit;
           ++k) {
        out->push_back(static_cast<NodeId>(dst));
      }
    }
  }
  if (out->size() >= limit) return;

  // Bucket pending flows by source server. Buckets keep flow arrival order
  // as a circular list, with `prev` at the back so appends are O(1).
  auto& entries = scratch->entries;
  auto& buckets = scratch->buckets;
  entries.clear();
  buckets.clear();
  scratch->flows_visited +=
      static_cast<std::int64_t>(local_.size() - first_unfinished_);
  for (std::size_t i = first_unfinished_; i < local_.size(); ++i) {
    const LocalFlow& f = local_[i];
    if (f.exhausted()) continue;
    const std::int64_t n = f.pending(now, cell_interval);
    if (n <= 0) continue;
    std::size_t b = 0;
    while (b < buckets.size() && buckets[b].server != f.src_server) ++b;
    const auto e = static_cast<std::uint32_t>(entries.size());
    entries.push_back({f.dst_node, n, e});
    if (b == buckets.size()) {
      buckets.push_back({f.src_server, e, e, 1});
    } else {
      PendingScratch::Bucket& bk = buckets[b];
      entries[e].next = bk.cur;
      entries[bk.prev].next = e;
      bk.prev = e;
      ++bk.size;
    }
  }

  // Two-level round-robin: one cell per server per pass, rotating over
  // each server's flows; a flow leaves its ring once all its pending
  // cells are listed.
  bool any = !buckets.empty();
  while (any && out->size() < limit) {
    any = false;
    for (PendingScratch::Bucket& bk : buckets) {
      if (bk.size == 0) continue;
      PendingScratch::Entry& en = entries[bk.cur];
      out->push_back(en.dst);
      if (--en.left > 0) {
        bk.prev = bk.cur;
      } else {
        entries[bk.prev].next = en.next;
        --bk.size;
      }
      bk.cur = entries[bk.prev].next;
      if (out->size() >= limit) return;
      any = any || bk.size != 0;
    }
  }
}

LocalFlow* Node::oldest_pending_flow_for(NodeId dst, Time now,
                                         Time cell_interval) {
  auto& q = per_dst_[static_cast<std::size_t>(dst)];
  // Drop exhausted heads, then serve the first flow with a pending cell and
  // rotate it to the back: cells of concurrent flows to the same
  // destination are interleaved in the rack's FIFO virtual queue (they
  // arrive interleaved from their servers), so service alternates across
  // flows instead of running one flow to completion.
  while (!q.empty() && local_[q.front()].exhausted()) q.pop();
  for (std::size_t k = 0; k < q.size(); ++k) {
    LocalFlow& f = local_[q.front()];
    if (f.exhausted()) {
      q.pop();
      continue;
    }
    q.rotate();
    if (f.pending(now, cell_interval) > 0) return &f;
  }
  return nullptr;
}

Cell Node::cut_cell(LocalFlow& f) {
  Cell c;
  c.flow = f.id;
  c.seq = static_cast<std::int32_t>(f.moved_cells);
  c.dst_node = f.dst_node;
  c.dst_server = f.dst_server;
  c.payload_bytes = payload_of(f.size, cell_capacity_, c.seq);
  ++f.moved_cells;
  if (f.exhausted()) {
    --unfinished_flows_;
    // Advance the FIFO cursor past the exhausted prefix.
    while (first_unfinished_ < local_.size() &&
           local_[first_unfinished_].exhausted()) {
      ++first_unfinished_;
    }
  }
  return c;
}

std::optional<Cell> Node::take_cell_for(NodeId dst, Time now,
                                        Time cell_interval) {
  auto& rq = retx_[static_cast<std::size_t>(dst)];
  if (!rq.empty()) {
    Cell c = rq.front();
    rq.pop();
    --retx_total_;
    gauge_.remove(cell_capacity_);
    return c;
  }
  LocalFlow* f = oldest_pending_flow_for(dst, now, cell_interval);
  if (f == nullptr) return std::nullopt;
  return cut_cell(*f);
}

std::vector<FlowId> Node::abort_flows_where(
    const std::function<bool(const LocalFlow&)>& pred) {
  std::vector<FlowId> aborted;
  for (LocalFlow& f : local_) {
    if (f.exhausted() || !pred(f)) continue;
    aborted.push_back(f.id);
    f.moved_cells = f.total_cells;
    --unfinished_flows_;
  }
  while (first_unfinished_ < local_.size() &&
         local_[first_unfinished_].exhausted()) {
    ++first_unfinished_;
  }
  return aborted;
}

void Node::push_retx(const Cell& c) {
  retx_[static_cast<std::size_t>(c.dst_node)].push(c);
  ++retx_total_;
  gauge_.add(cell_capacity_);
}

std::int64_t Node::purge_dst(NodeId dst,
                             const std::function<void(NodeId)>& on_vq_purge) {
  std::int64_t dropped = 0;
  for (std::size_t inter = 0; inter < peers_.size(); ++inter) {
    auto& q = peers_[inter].vq;
    for (std::size_t i = q.size(); i > 0; --i) {
      if (q.front().dst_node != dst) {
        q.rotate();
        continue;
      }
      q.pop();
      gauge_.remove(cell_capacity_);
      ++dropped;
      if (on_vq_purge) on_vq_purge(static_cast<NodeId>(inter));
    }
  }
  auto& f = peers_[static_cast<std::size_t>(dst)].fq;
  dropped += static_cast<std::int64_t>(f.size());
  gauge_.remove(cell_capacity_ * static_cast<std::int64_t>(f.size()));
  f.clear();
  auto& r = retx_[static_cast<std::size_t>(dst)];
  dropped += static_cast<std::int64_t>(r.size());
  retx_total_ -= static_cast<std::int64_t>(r.size());
  gauge_.remove(cell_capacity_ * static_cast<std::int64_t>(r.size()));
  r.clear();
  rebuild_occupied();
  return dropped;
}

std::int64_t Node::purge_all_queues() {
  std::int64_t dropped = 0;
  const auto clear = [&](FifoRing<Cell>& q) {
    dropped += static_cast<std::int64_t>(q.size());
    gauge_.remove(cell_capacity_ * static_cast<std::int64_t>(q.size()));
    q.clear();
  };
  for (PeerQueues& pq : peers_) {
    clear(pq.vq);
    clear(pq.fq);
  }
  for (FifoRing<Cell>& q : retx_) clear(q);
  retx_total_ = 0;
  rebuild_occupied();
  return dropped;
}

std::optional<Cell> Node::take_any_cell(Time now, Time cell_interval) {
  // Round-robin over flows so concurrent flows share the uplinks fairly
  // (this is the "ideal" per-flow service discipline).
  for (std::size_t tries = spray_ready_.size(); tries > 0; --tries) {
    LocalFlow& f = local_[spray_ready_.front()];
    if (f.exhausted()) {
      spray_ready_.pop();  // drop from rotation
      continue;
    }
    if (f.pending(now, cell_interval) > 0) {
      Cell c = cut_cell(f);
      if (f.exhausted()) {
        spray_ready_.pop();
      } else {
        spray_ready_.rotate();
      }
      return c;
    }
    spray_ready_.rotate();  // paced out; retry later
  }
  return std::nullopt;
}

void Node::rebuild_occupied() {
  std::fill(occupied_.begin(), occupied_.end(), 0);
  for (std::size_t p = 0; p < peers_.size(); ++p) {
    if (!peers_[p].fq.empty() || !peers_[p].vq.empty()) {
      mark_occupied(static_cast<NodeId>(p));
    }
  }
}

namespace {

/// Writes the `n` cell queues `queue(0) .. queue(n - 1)`.
template <typename QueueAt>
void put_cell_queues(ckpt::Writer& w, std::size_t n, QueueAt&& queue) {
  w.u64(n);
  for (std::size_t d = 0; d < n; ++d) {
    const FifoRing<Cell>& q = queue(d);
    w.u64(q.size());
    for (std::size_t i = 0; i < q.size(); ++i) put_cell(w, q[i]);
  }
}

/// Reads one cell queue per node into `queue(d)`. `per_dst` queues (FQ,
/// retx) hold only cells addressed to their own index; a VQ may hold any
/// destination.
template <typename QueueAt>
bool get_cell_queues(ckpt::Reader& r, std::size_t nodes, QueueAt&& queue,
                     bool per_dst, const char* what) {
  const std::size_t n = r.count(8, what);
  if (!r.ok() || n != nodes) {
    r.fail(std::string(what) + " queue count does not match the node count");
    return false;
  }
  for (std::size_t d = 0; d < n; ++d) {
    FifoRing<Cell>& q = queue(d);
    q.clear();
    const std::size_t m = r.count(kCellBytes, what);
    q.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
      const Cell c = get_cell(r);
      if (!r.ok()) return false;
      const bool in_range = per_dst ? static_cast<std::size_t>(c.dst_node) == d
                                    : c.dst_node >= 0 &&
                                          static_cast<std::size_t>(
                                              c.dst_node) < n;
      if (!in_range) {
        r.fail(std::string(what) + " queue holds a cell for the wrong "
                                   "destination");
        return false;
      }
      q.push(c);
    }
  }
  return r.ok();
}

void put_index_ring(ckpt::Writer& w, const FifoRing<std::size_t>& d) {
  w.u64(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    w.u64(static_cast<std::uint64_t>(d[i]));
  }
}

bool get_index_ring(ckpt::Reader& r, FifoRing<std::size_t>* d,
                    std::size_t bound, const char* what) {
  d->clear();
  const std::size_t n = r.count(8, what);
  d->reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t v = r.u64();
    if (v >= bound) {
      r.fail(std::string(what) + " index outside the LOCAL buffer");
      return false;
    }
    d->push(static_cast<std::size_t>(v));
  }
  return r.ok();
}

}  // namespace

void Node::serialize(ckpt::Writer& w) const {
  cc_.serialize(w);
  w.u64(local_.size());
  for (const LocalFlow& f : local_) {
    w.i64(f.id);
    w.i32(f.dst_node);
    w.i32(f.src_server);
    w.i32(f.dst_server);
    w.i64(f.size.in_bytes());
    w.i64(f.arrival.picoseconds());
    w.i64(f.total_cells);
    w.i64(f.moved_cells);
  }
  w.u64(per_dst_.size());
  for (const auto& d : per_dst_) put_index_ring(w, d);
  w.u64(static_cast<std::uint64_t>(first_unfinished_));
  w.i64(unfinished_flows_);
  put_index_ring(w, spray_ready_);
  const std::size_t n = peers_.size();
  put_cell_queues(w, n, [this](std::size_t d) -> const FifoRing<Cell>& {
    return peers_[d].vq;
  });
  put_cell_queues(w, n, [this](std::size_t d) -> const FifoRing<Cell>& {
    return peers_[d].fq;
  });
  put_cell_queues(w, n, [this](std::size_t d) -> const FifoRing<Cell>& {
    return retx_[d];
  });
  w.i64(retx_total_);
  gauge_.serialize(w);
}

bool Node::restore(ckpt::Reader& r) {
  if (!cc_.restore(r)) return false;
  const std::size_t n_local = r.count(8, "LOCAL flow list");
  std::vector<LocalFlow> local;
  local.reserve(n_local);
  for (std::size_t i = 0; i < n_local && r.ok(); ++i) {
    LocalFlow f;
    f.id = r.i64();
    f.dst_node = r.i32();
    f.src_server = r.i32();
    f.dst_server = r.i32();
    f.size = DataSize::bytes(r.i64());
    f.arrival = Time::ps(r.i64());
    f.total_cells = r.i64();
    f.moved_cells = r.i64();
    if (r.ok() &&
        (f.dst_node < 0 ||
         static_cast<std::size_t>(f.dst_node) >= per_dst_.size() ||
         f.size.in_bytes() < 0 || f.total_cells <= 0 || f.moved_cells < 0 ||
         f.moved_cells > f.total_cells)) {
      r.fail("LOCAL flow state out of range");
      return false;
    }
    local.push_back(f);
  }
  if (!r.ok()) return false;
  const std::size_t n_per_dst = r.count(8, "per-destination index");
  if (n_per_dst != per_dst_.size()) {
    r.fail("per-destination index count does not match the node count");
    return false;
  }
  std::vector<FifoRing<std::size_t>> per_dst(n_per_dst);
  for (auto& d : per_dst) {
    if (!get_index_ring(r, &d, local.size(), "per-destination index")) {
      return false;
    }
  }
  const std::uint64_t first_unfinished = r.u64();
  const std::int64_t unfinished = r.i64();
  FifoRing<std::size_t> spray;
  if (!get_index_ring(r, &spray, local.size(), "spray rotation")) {
    return false;
  }
  if (first_unfinished > local.size() || unfinished < 0 ||
      unfinished > static_cast<std::int64_t>(local.size())) {
    r.fail("LOCAL cursor state out of range");
    return false;
  }
  local_ = std::move(local);
  per_dst_ = std::move(per_dst);
  first_unfinished_ = static_cast<std::size_t>(first_unfinished);
  unfinished_flows_ = unfinished;
  spray_ready_ = std::move(spray);
  const std::size_t n = peers_.size();
  if (!get_cell_queues(
          r, n,
          [this](std::size_t d) -> FifoRing<Cell>& { return peers_[d].vq; },
          false, "virtual") ||
      !get_cell_queues(
          r, n,
          [this](std::size_t d) -> FifoRing<Cell>& { return peers_[d].fq; },
          true, "forward") ||
      !get_cell_queues(
          r, n, [this](std::size_t d) -> FifoRing<Cell>& { return retx_[d]; },
          true, "retransmission")) {
    return false;
  }
  rebuild_occupied();
  std::int64_t retx_cells = 0;
  std::int64_t cells = 0;
  for (std::size_t d = 0; d < n; ++d) {
    retx_cells += static_cast<std::int64_t>(retx_[d].size());
    cells += static_cast<std::int64_t>(peers_[d].vq.size() +
                                       peers_[d].fq.size());
  }
  cells += retx_cells;
  retx_total_ = r.i64();
  if (r.ok() && retx_total_ != retx_cells) {
    // epoch_boundary skips a node's request build on retx_total() == 0, so
    // a total that disagrees with the queues would strand or invent cells.
    r.fail("retransmission total does not match the retransmission queues");
    return false;
  }
  if (!gauge_.restore(r)) return false;
  if (gauge_.current() != cell_capacity_ * cells) {
    r.fail("queue occupancy gauge does not match the queued cells");
    return false;
  }
  return true;
}

}  // namespace sirius::node
