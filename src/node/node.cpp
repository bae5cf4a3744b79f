#include "node/node.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>

#include "common/invariant.hpp"

namespace sirius::node {

Node::Node(NodeId self, const cc::RequestGrantConfig& cc_cfg,
           DataSize cell_capacity)
    : self_(self), cc_(self, cc_cfg), cell_capacity_(cell_capacity) {
  const auto nodes = static_cast<std::size_t>(cc_cfg.nodes);
  per_dst_ = PooledQueues<std::uint32_t>(nodes);
  spray_ready_ = PooledQueues<std::uint32_t>(1);
  queues_ = PooledQueues<Cell>(2 * nodes);
  retx_ = PooledQueues<Cell>(nodes);
  occupied_.assign((nodes + 63) / 64, 0);
}

void Node::add_flow(const LocalFlow& f) {
  SIRIUS_INVARIANT(f.total_cells > 0, "flow %lld arrives with %lld cells",
                   static_cast<long long>(f.id),
                   static_cast<long long>(f.total_cells));
  if (f.total_cells <= 0) return;
  assert(local_.size() < std::numeric_limits<std::uint32_t>::max());
  const auto idx = static_cast<std::uint32_t>(local_.size());
  local_.push_back(f);
  live_.push_back(idx);
  per_dst_.push(static_cast<std::size_t>(f.dst_node), idx);
  spray_ready_.push(0, idx);
  ++unfinished_flows_;
}

void Node::pending_cell_dsts(Time now, Time cell_interval, std::size_t limit,
                             PendingScratch* scratch,
                             std::vector<NodeId>* out) {
  out->clear();

  // Retransmissions first: a lost cell blocks its flow's in-order prefix
  // at the receiver, so re-covering it beats injecting fresh cells.
  if (retx_total_ > 0) {
    for (std::size_t dst = 0; dst < retx_.lists() && out->size() < limit;
         ++dst) {
      for (std::size_t k = 0; k < retx_.size(dst) && out->size() < limit;
           ++k) {
        out->push_back(static_cast<NodeId>(dst));
      }
    }
  }
  if (out->size() >= limit) return;

  // Bucket pending flows by source server. Buckets keep flow arrival order
  // as a circular list, with `prev` at the back so appends are O(1).
  // Exhausted flows leave the live-flow index here: a flow never becomes
  // unexhausted again (retransmissions go to retx_), so the scan keeps the
  // order and the output of a scan over every LOCAL flow.
  auto& entries = scratch->entries;
  auto& buckets = scratch->buckets;
  entries.clear();
  buckets.clear();
  scratch->flows_visited += static_cast<std::int64_t>(live_.size());
  std::size_t kept = 0;
  for (std::size_t k = 0; k < live_.size(); ++k) {
    const std::uint32_t i = live_[k];
    const LocalFlow& f = local_[i];
    if (f.exhausted()) continue;
    live_[kept++] = i;
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
  live_.resize(kept);

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
  const auto d = static_cast<std::size_t>(dst);
  auto& q = per_dst_;
  // Drop exhausted heads, then serve the first flow with a pending cell and
  // rotate it to the back: cells of concurrent flows to the same
  // destination are interleaved in the rack's FIFO virtual queue (they
  // arrive interleaved from their servers), so service alternates across
  // flows instead of running one flow to completion.
  while (!q.empty(d) && local_[q.front(d)].exhausted()) q.pop(d);
  for (std::size_t k = 0; k < q.size(d); ++k) {
    LocalFlow& f = local_[q.front(d)];
    if (f.exhausted()) {
      q.pop(d);
      continue;
    }
    q.rotate(d);
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
  // Every cell but the last is full; the last carries the remainder.
  // total_cells is cells_for(size, capacity) (restore checks it).
  const DataSize payload =
      c.seq + 1 < f.total_cells
          ? cell_capacity_
          : f.size - cell_capacity_ * (f.total_cells - 1);
  c.payload_bytes = static_cast<std::int32_t>(payload.in_bytes());
  ++f.moved_cells;
  if (f.exhausted()) --unfinished_flows_;
  return c;
}

std::optional<Cell> Node::take_cell_for(NodeId dst, Time now,
                                        Time cell_interval) {
  const auto d = static_cast<std::size_t>(dst);
  if (retx_total_ > 0 && !retx_.empty(d)) {
    Cell c = retx_.front(d);
    retx_.pop(d);
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
  return aborted;
}

void Node::push_retx(const Cell& c) {
  retx_.push(static_cast<std::size_t>(c.dst_node), c);
  ++retx_total_;
  gauge_.add(cell_capacity_);
}

std::int64_t Node::purge_dst(NodeId dst,
                             const std::function<void(NodeId)>& on_vq_purge) {
  std::int64_t dropped = 0;
  for (NodeId inter = 0; inter < static_cast<NodeId>(queue_span());
       ++inter) {
    const std::size_t l = vq_list(inter);
    for (std::size_t i = queues_.size(l); i > 0; --i) {
      if (queues_.front(l).dst_node != dst) {
        queues_.rotate(l);
        continue;
      }
      queues_.pop(l);
      gauge_.remove(cell_capacity_);
      ++dropped;
      if (on_vq_purge) on_vq_purge(inter);
    }
  }
  const std::int64_t fq = fq_depth(dst);
  dropped += fq;
  gauge_.remove(cell_capacity_ * fq);
  queues_.clear(fq_list(dst));
  const std::int64_t rq = retx_depth(dst);
  dropped += rq;
  retx_total_ -= rq;
  gauge_.remove(cell_capacity_ * rq);
  retx_.clear(static_cast<std::size_t>(dst));
  rebuild_occupied();
  return dropped;
}

std::int64_t Node::purge_all_queues() {
  std::int64_t dropped = 0;
  const auto clear = [&](PooledQueues<Cell>& pool) {
    for (std::size_t l = 0; l < pool.lists(); ++l) {
      const auto n = static_cast<std::int64_t>(pool.size(l));
      dropped += n;
      gauge_.remove(cell_capacity_ * n);
      pool.clear(l);
    }
  };
  clear(queues_);
  clear(retx_);
  retx_total_ = 0;
  rebuild_occupied();
  return dropped;
}

std::optional<Cell> Node::take_any_cell(Time now, Time cell_interval) {
  // Round-robin over flows so concurrent flows share the uplinks fairly
  // (this is the "ideal" per-flow service discipline).
  auto& q = spray_ready_;
  for (std::size_t tries = q.size(0); tries > 0; --tries) {
    LocalFlow& f = local_[q.front(0)];
    if (f.exhausted()) {
      q.pop(0);  // drop from rotation
      continue;
    }
    if (f.pending(now, cell_interval) > 0) {
      Cell c = cut_cell(f);
      if (f.exhausted()) {
        q.pop(0);
      } else {
        q.rotate(0);
      }
      return c;
    }
    q.rotate(0);  // paced out; retry later
  }
  return std::nullopt;
}

std::size_t Node::first_unfinished() const {
  for (const std::uint32_t i : live_) {
    if (!local_[i].exhausted()) return i;
  }
  return local_.size();
}

void Node::rebuild_occupied() {
  std::fill(occupied_.begin(), occupied_.end(), 0);
  for (NodeId p = 0; p < static_cast<NodeId>(queue_span()); ++p) {
    if (!fq_empty(p) || !vq_empty(p)) mark_occupied(p);
  }
}

namespace {

/// Writes the `n` cell queues `pool` lists `list(0) .. list(n - 1)`.
template <typename ListOf>
void put_cell_queues(ckpt::Writer& w, const PooledQueues<Cell>& pool,
                     std::size_t n, ListOf&& list) {
  w.u64(n);
  for (std::size_t d = 0; d < n; ++d) {
    const std::size_t l = list(d);
    w.u64(pool.size(l));
    pool.for_each(l, [&w](const Cell& c) { put_cell(w, c); });
  }
}

/// Reads one cell queue per node into `pool` list `list(d)`, which must be
/// empty. `per_dst` queues (FQ, retx) hold only cells addressed to their
/// own index; a VQ may hold any destination.
template <typename ListOf>
bool get_cell_queues(ckpt::Reader& r, std::size_t nodes,
                     PooledQueues<Cell>& pool, ListOf&& list, bool per_dst,
                     const char* what) {
  const std::size_t n = r.count(8, what);
  if (!r.ok() || n != nodes) {
    r.fail(std::string(what) + " queue count does not match the node count");
    return false;
  }
  for (std::size_t d = 0; d < n; ++d) {
    const std::size_t l = list(d);
    const std::size_t m = r.count(kCellBytes, what);
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
      pool.push(l, c);
    }
  }
  return r.ok();
}

void put_index_list(ckpt::Writer& w, const PooledQueues<std::uint32_t>& pool,
                    std::size_t l) {
  w.u64(pool.size(l));
  pool.for_each(l, [&w](std::uint32_t i) { w.u64(i); });
}

/// Reads one index list into `pool` list `l`, which must be empty.
bool get_index_list(ckpt::Reader& r, PooledQueues<std::uint32_t>& pool,
                    std::size_t l, std::size_t bound, const char* what) {
  const std::size_t n = r.count(8, what);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t v = r.u64();
    if (v >= bound) {
      r.fail(std::string(what) + " index outside the LOCAL buffer");
      return false;
    }
    pool.push(l, static_cast<std::uint32_t>(v));
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
  const std::size_t n = queue_span();
  w.u64(n);
  for (std::size_t d = 0; d < n; ++d) put_index_list(w, per_dst_, d);
  w.u64(first_unfinished());
  w.i64(unfinished_flows_);
  put_index_list(w, spray_ready_, 0);
  const auto vq = [](std::size_t d) { return vq_list(static_cast<NodeId>(d)); };
  const auto fq = [](std::size_t d) { return fq_list(static_cast<NodeId>(d)); };
  const auto own = [](std::size_t d) { return d; };
  put_cell_queues(w, queues_, n, vq);
  put_cell_queues(w, queues_, n, fq);
  put_cell_queues(w, retx_, n, own);
  w.i64(retx_total_);
  gauge_.serialize(w);
}

bool Node::restore(ckpt::Reader& r) {
  if (!cc_.restore(r)) return false;
  const std::size_t n_local = r.count(8, "LOCAL flow list");
  if (n_local >= std::numeric_limits<std::uint32_t>::max()) {
    r.fail("LOCAL flow list longer than its 32-bit index");
    return false;
  }
  const std::size_t n = queue_span();
  const std::int64_t cap = cell_capacity_.in_bytes();
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
    // cut_cell sizes the last cell from total_cells, so it must be the
    // flow's cell count.
    if (r.ok() &&
        (f.dst_node < 0 || static_cast<std::size_t>(f.dst_node) >= n ||
         f.size.in_bytes() <= 0 ||
         f.total_cells != (f.size.in_bytes() - 1) / cap + 1 ||
         f.moved_cells < 0 || f.moved_cells > f.total_cells)) {
      r.fail("LOCAL flow state out of range");
      return false;
    }
    local.push_back(f);
  }
  if (!r.ok()) return false;
  const std::size_t n_per_dst = r.count(8, "per-destination index");
  if (n_per_dst != n) {
    r.fail("per-destination index count does not match the node count");
    return false;
  }
  per_dst_.reset();
  for (std::size_t d = 0; d < n; ++d) {
    if (!get_index_list(r, per_dst_, d, local.size(),
                        "per-destination index")) {
      return false;
    }
  }
  const std::uint64_t cursor = r.u64();
  const std::int64_t unfinished = r.i64();
  spray_ready_.reset();
  if (!get_index_list(r, spray_ready_, 0, local.size(), "spray rotation")) {
    return false;
  }
  local_ = std::move(local);
  live_.clear();
  live_.reserve(local_.size());
  for (std::size_t i = 0; i < local_.size(); ++i) {
    if (!local_[i].exhausted()) live_.push_back(static_cast<std::uint32_t>(i));
  }
  if (cursor != first_unfinished() ||
      unfinished != static_cast<std::int64_t>(live_.size())) {
    r.fail("LOCAL cursor state does not match the LOCAL flows");
    return false;
  }
  unfinished_flows_ = unfinished;
  queues_.reset();
  retx_.reset();
  const auto vq = [](std::size_t d) { return vq_list(static_cast<NodeId>(d)); };
  const auto fq = [](std::size_t d) { return fq_list(static_cast<NodeId>(d)); };
  const auto own = [](std::size_t d) { return d; };
  if (!get_cell_queues(r, n, queues_, vq, false, "virtual") ||
      !get_cell_queues(r, n, queues_, fq, true, "forward") ||
      !get_cell_queues(r, n, retx_, own, true, "retransmission")) {
    return false;
  }
  rebuild_occupied();
  std::int64_t retx_cells = 0;
  std::int64_t cells = 0;
  for (NodeId d = 0; d < static_cast<NodeId>(n); ++d) {
    retx_cells += retx_depth(d);
    cells += vq_depth(d) + fq_depth(d);
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
