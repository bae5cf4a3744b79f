// Unit tests for node/: cells, LOCAL buffer semantics, queues, reordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "ckpt/io.hpp"
#include "common/rng.hpp"
#include "workload/flow.hpp"
#include "node/cell.hpp"
#include "node/node.hpp"
#include "node/pooled_queues.hpp"
#include "node/reorder_buffer.hpp"

namespace sirius::node {
namespace {

constexpr DataSize kCell = DataSize::bytes(562);
const Time kInject = Time::ns(90);  // one cell per 90 ns at 50 Gbps

cc::RequestGrantConfig cc_cfg() { return cc::RequestGrantConfig{8, 4}; }

std::vector<NodeId> pending_dsts(Node& n, Time now, std::size_t limit) {
  PendingScratch scratch;
  std::vector<NodeId> out;
  n.pending_cell_dsts(now, kInject, limit, &scratch, &out);
  return out;
}

LocalFlow flow(FlowId id, NodeId dst, DataSize size, Time arrival) {
  LocalFlow f;
  f.id = id;
  f.dst_node = dst;
  f.dst_server = dst * 10;
  f.size = size;
  f.arrival = arrival;
  f.total_cells = cells_for(size, kCell);
  return f;
}

Cell cell_no(std::int32_t k) {
  Cell c;
  c.flow = 1000 + k;
  c.seq = k;
  c.dst_node = k % 7;
  c.dst_server = k % 13;
  c.payload_bytes = 562 - k % 5;
  c.retries = k % 3;
  return c;
}

/// Workload flows that cell_no(0) ... cell_no(n - 1) belong to.
std::vector<workload::Flow> flows_of_cells(std::int32_t n) {
  std::vector<workload::Flow> flows(static_cast<std::size_t>(1000 + n));
  for (std::int32_t k = 0; k < n; ++k) {
    const Cell c = cell_no(k);
    workload::Flow& f = flows[static_cast<std::size_t>(c.flow)];
    f.id = c.flow;
    f.dst_server = c.dst_server;
    f.size = kCell * (k + 1);
  }
  return flows;
}

void write_cell(ckpt::Writer& w, const Cell& c) {
  w.i64(c.flow);
  w.i32(c.seq);
  w.i32(c.dst_node);
  w.i32(c.dst_server);
  w.i32(c.payload_bytes);
  w.i32(c.retries);
}

/// List `l` of `pool` front to back, as flow ids.
std::vector<FlowId> flows_of(const PooledQueues<Cell>& pool, std::size_t l) {
  std::vector<FlowId> out;
  pool.for_each(l, [&out](const Cell& c) { out.push_back(c.flow); });
  return out;
}

std::vector<FlowId> flows_of(const std::deque<Cell>& q) {
  std::vector<FlowId> out;
  for (const Cell& c : q) out.push_back(c.flow);
  return out;
}

TEST(PooledQueues, KeepsFifoOrderAcrossInterleavedLists) {
  // Random pushes, pops, rotations and clears on five lists sharing one
  // pool, against a std::deque per list: every list's slots end up
  // interleaved with the others' and recycled through the free list.
  constexpr std::size_t kLists = 5;
  PooledQueues<Cell> pool(kLists);
  std::vector<std::deque<Cell>> ref(kLists);
  Rng rng(3);
  std::int32_t next = 0;
  for (int step = 0; step < 5000; ++step) {
    const std::size_t l = rng.below(kLists);
    const std::uint64_t op = rng.below(100);
    std::deque<Cell>& q = ref[l];
    if (q.empty() || op < (step < 2500 ? 50 : 40)) {
      pool.push(l, cell_no(next));
      q.push_back(cell_no(next));
      ++next;
    } else if (op < 65) {
      pool.rotate(l);
      q.push_back(q.front());
      q.pop_front();
    } else if (op < 67) {
      pool.clear(l);
      q.clear();
    } else {
      ASSERT_EQ(pool.front(l).flow, q.front().flow);
      pool.pop(l);
      q.pop_front();
    }
    for (std::size_t k = 0; k < kLists; ++k) {
      ASSERT_EQ(pool.size(k), ref[k].size());
      ASSERT_EQ(pool.empty(k), ref[k].empty());
      ASSERT_EQ(flows_of(pool, k), flows_of(ref[k]))
          << "step " << step << " list " << k;
    }
  }
}

TEST(PooledQueues, HoldsAsManySlotsAsItsPeakLiveEntries) {
  PooledQueues<std::uint32_t> pool(4);
  EXPECT_EQ(pool.slots(), 0u);  // nothing allocated until the first push
  Rng rng(8);
  std::size_t live = 0;
  std::size_t peak = 0;
  for (std::uint32_t step = 0; step < 3000; ++step) {
    const std::size_t l = rng.below(4);
    const std::uint64_t op = rng.below(100);
    if (pool.empty(l) || op < (step < 1500 ? 55 : 40)) {
      pool.push(l, step);
      peak = std::max(peak, ++live);
    } else if (op < 60) {
      pool.rotate(l);
    } else if (op < 62) {
      live -= pool.size(l);
      pool.clear(l);
    } else {
      pool.pop(l);
      --live;
    }
    ASSERT_EQ(pool.slots(), peak) << "step " << step;
  }
  pool.reset();
  EXPECT_EQ(pool.slots(), 0u);
  EXPECT_TRUE(pool.empty(0));
}

TEST(PooledQueues, ReusesTheMostRecentlyFreedSlot) {
  PooledQueues<std::uint32_t> pool(3);
  pool.push(0, 10);
  pool.push(1, 11);
  pool.push(2, 12);
  const std::uint32_t* a = &pool.front(0);
  const std::uint32_t* b = &pool.front(1);
  const std::uint32_t* c = &pool.front(2);
  pool.pop(1);
  pool.pop(0);  // freed last, so reused first
  pool.push(2, 13);
  pool.push(1, 14);
  EXPECT_EQ(pool.slots(), 3u);
  EXPECT_EQ(&pool.front(1), b);
  pool.pop(2);
  EXPECT_EQ(pool.front(2), 13u);
  EXPECT_EQ(&pool.front(2), a);
  // clear hands a whole list back, its front slot on top.
  pool.clear(2);
  pool.push(0, 15);
  EXPECT_EQ(&pool.front(0), a);
  pool.push(0, 16);  // then the slot popped before the clear
  pool.pop(0);
  EXPECT_EQ(&pool.front(0), c);
  EXPECT_EQ(pool.slots(), 3u);
}

void write_local_flow(ckpt::Writer& w, const LocalFlow& f) {
  w.i64(f.id);
  w.i32(f.dst_node);
  w.i32(f.src_server);
  w.i32(f.dst_server);
  w.i64(f.size.in_bytes());
  w.i64(f.arrival.picoseconds());
  w.i64(f.total_cells);
  w.i64(f.moved_cells);
}

template <typename T, typename Put>
void write_queues(ckpt::Writer& w, const std::vector<std::deque<T>>& qs,
                  Put&& put) {
  w.u64(qs.size());
  for (const auto& q : qs) {
    w.u64(q.size());
    for (const T& v : q) put(w, v);
  }
}

TEST(Node, CheckpointBytesMatchDequeReferences) {
  // Scripted queue traffic on every peer, checkpointed and compared byte
  // for byte against the same sequence kept on std::deque references in
  // the checkpoint layout the pools replaced; then restored into a fresh
  // node, which must write the same bytes and pop in the same order.
  constexpr std::size_t kPeers = 8;  // cc_cfg()'s node count
  Node n(0, cc_cfg(), kCell);
  std::vector<LocalFlow> local;
  std::vector<std::deque<std::uint32_t>> per_dst(kPeers);
  std::vector<std::deque<std::uint32_t>> spray(1);
  for (std::uint32_t i = 0; i < 3; ++i) {
    const LocalFlow f = flow(i, i == 2 ? 5 : 3, DataSize::bytes(562 * 4),
                             Time::zero());
    n.add_flow(f);
    local.push_back(f);
    per_dst[static_cast<std::size_t>(f.dst_node)].push_back(i);
    spray[0].push_back(i);
  }
  // A grant towards 3 serves flow 0 and rotates it behind flow 1.
  ASSERT_EQ(n.take_cell_for(3, Time::us(10), kInject).value().flow, 0);
  ++local[0].moved_cells;
  per_dst[3].push_back(per_dst[3].front());
  per_dst[3].pop_front();

  std::vector<std::deque<Cell>> vq(kPeers), fq(kPeers), retx(kPeers);
  std::int64_t cells = 0;
  std::int64_t peak = 0;
  const auto added = [&] { peak = std::max(peak, ++cells); };
  Rng rng(5);
  std::int32_t next = 0;
  for (int step = 0; step < 600; ++step) {
    const auto p = static_cast<NodeId>(rng.below(kPeers));
    const auto d = static_cast<std::size_t>(p);
    Cell c = cell_no(next++);
    switch (rng.below(6)) {
      case 0:
        n.push_vq(p, c);
        vq[d].push_back(c);
        added();
        break;
      case 1:
        c.dst_node = p;
        n.push_fq(p, c);
        fq[d].push_back(c);
        added();
        break;
      case 2:
        c.dst_node = p;
        n.push_retx(c);
        retx[d].push_back(c);
        added();
        break;
      case 3: {
        const auto got = n.pop_vq(p);
        ASSERT_EQ(got.has_value(), !vq[d].empty());
        if (!got) break;
        ASSERT_EQ(got->flow, vq[d].front().flow);
        vq[d].pop_front();
        --cells;
        break;
      }
      case 4: {
        const auto got = n.pop_fq(p);
        ASSERT_EQ(got.has_value(), !fq[d].empty());
        if (!got) break;
        ASSERT_EQ(got->flow, fq[d].front().flow);
        fq[d].pop_front();
        --cells;
        break;
      }
      default:
        if (retx[d].empty()) break;
        // A grant serves the retransmission queue before LOCAL.
        ASSERT_EQ(n.take_cell_for(p, Time::us(10), kInject).value().flow,
                  retx[d].front().flow);
        retx[d].pop_front();
        --cells;
        break;
    }
    if (step == 300) {
      // Purging a destination rotates every VQ past the cells it keeps.
      std::int64_t dropped = 0;
      for (auto& q : vq) {
        for (auto it = q.begin(); it != q.end();) {
          if (it->dst_node == 4) {
            it = q.erase(it);
            ++dropped;
          } else {
            ++it;
          }
        }
      }
      dropped += static_cast<std::int64_t>(fq[4].size() + retx[4].size());
      fq[4].clear();
      retx[4].clear();
      cells -= dropped;
      ASSERT_EQ(n.purge_dst(4, nullptr), dropped);
    }
  }

  std::int64_t retx_cells = 0;
  for (const auto& q : retx) retx_cells += static_cast<std::int64_t>(q.size());
  ckpt::Writer want;
  n.cc().serialize(want);
  want.u64(local.size());
  for (const LocalFlow& f : local) write_local_flow(want, f);
  const auto put_index = [](ckpt::Writer& w, std::uint32_t i) { w.u64(i); };
  write_queues(want, per_dst, put_index);
  want.u64(0);  // first unfinished flow
  want.i64(3);  // unfinished flows
  want.u64(spray[0].size());
  for (const std::uint32_t i : spray[0]) want.u64(i);
  write_queues(want, vq, write_cell);
  write_queues(want, fq, write_cell);
  write_queues(want, retx, write_cell);
  want.i64(retx_cells);
  want.i64(562 * cells);
  want.i64(562 * peak);

  ckpt::Writer got;
  n.serialize(got);
  ASSERT_EQ(got.data(), want.data());

  Node back(0, cc_cfg(), kCell);
  ckpt::Reader r(got.data());
  ASSERT_TRUE(back.restore(r, flows_of_cells(next))) << r.error();
  ckpt::Writer again;
  back.serialize(again);
  EXPECT_EQ(again.data(), want.data());
  for (std::size_t d = 0; d < kPeers; ++d) {
    for (const Cell& c : vq[d]) {
      ASSERT_EQ(back.pop_vq(static_cast<NodeId>(d)).value().flow, c.flow);
    }
    EXPECT_FALSE(back.pop_vq(static_cast<NodeId>(d)).has_value());
  }
}

TEST(Node, RestoreRejectsLocalStateThatDisagreesWithItsFlows) {
  // The last cell's payload comes from total_cells, and the FIFO cursor and
  // unfinished count are derived from the flows, so a snapshot in which
  // either disagrees with the flows is malformed.
  Node n(0, cc_cfg(), kCell);
  n.add_flow(flow(0, 3, DataSize::bytes(1'000), Time::zero()));
  ckpt::Writer cc;
  n.cc().serialize(cc);
  ckpt::Writer w;
  n.serialize(w);
  const std::string bytes = w.data();
  // total_cells sits after the flow count and six fields of the one flow;
  // the cursor after the flow and the eight per-destination lists, the
  // fourth of which holds the flow.
  const std::size_t total_cells_at = cc.data().size() + 8 + 8 + 3 * 4 + 8 + 8;
  const std::size_t cursor_at = cc.data().size() + 8 + 56 + 8 + 8 * 8 + 8;
  const auto rejects = [&bytes](std::size_t at, unsigned char was,
                                unsigned char now) {
    EXPECT_EQ(static_cast<unsigned char>(bytes[at]), was);
    std::string bad = bytes;
    bad[at] = static_cast<char>(now);
    Node back(0, cc_cfg(), kCell);
    ckpt::Reader r(bad);
    EXPECT_FALSE(back.restore(r, {}));
    return r.error();
  };
  EXPECT_NE(rejects(total_cells_at, 2, 3).find("LOCAL flow state"),
            std::string::npos);
  EXPECT_NE(rejects(cursor_at, 0, 1).find("LOCAL cursor"), std::string::npos);
  Node back(0, cc_cfg(), kCell);
  ckpt::Reader r(bytes);
  EXPECT_TRUE(back.restore(r, {})) << r.error();
}

TEST(Node, RestoreRejectsQueuedCellsOutsideTheWorkload) {
  // Delivery indexes per-flow receive state by a cell's flow and seq and a
  // server's downlink by its destination server, so a snapshot may hold
  // only cells its workload can have cut.
  const std::vector<workload::Flow> flows = flows_of_cells(1);
  const Cell c = cell_no(0);
  Node n(0, cc_cfg(), kCell);
  n.push_vq(2, c);
  ckpt::Writer w;
  n.serialize(w);
  const std::string bytes = w.data();
  ckpt::Writer cell;
  write_cell(cell, c);
  const std::size_t at = bytes.find(cell.data());
  ASSERT_NE(at, std::string::npos);
  const auto rejects = [&](std::size_t offset, std::int32_t value) {
    std::string bad = bytes;
    ckpt::Writer v;
    v.i32(value);
    bad.replace(at + offset, 4, v.data());
    Node back(0, cc_cfg(), kCell);
    ckpt::Reader r(bad);
    EXPECT_FALSE(back.restore(r, flows));
    return r.error();
  };
  // The cell's fields: flow (i64, low word first), seq, dst node, dst
  // server. Flow 1001 does not exist, flow 1000 has one cell, and its
  // destination server is 0.
  EXPECT_NE(rejects(0, 1001).find("outside the workload"), std::string::npos);
  EXPECT_NE(rejects(8, 1).find("outside the workload"), std::string::npos);
  EXPECT_NE(rejects(16, 3).find("outside the workload"), std::string::npos);
  Node back(0, cc_cfg(), kCell);
  ckpt::Reader r(bytes);
  EXPECT_TRUE(back.restore(r, flows)) << r.error();
}

TEST(Node, OccupancyTracksForwardAndVirtualQueues) {
  Node n(0, cc_cfg(), kCell);
  EXPECT_FALSE(n.occupied(3));
  n.push_vq(3, cell_no(1));
  n.push_fq(3, cell_no(2));
  EXPECT_TRUE(n.occupied(3));
  ASSERT_TRUE(n.pop_fq(3).has_value());
  EXPECT_TRUE(n.occupied(3));  // the VQ still holds a cell
  ASSERT_TRUE(n.pop_vq(3).has_value());
  EXPECT_FALSE(n.occupied(3));
  n.push_retx(cell_no(5));  // dst_node 5
  EXPECT_EQ(n.retx_depth(5), 1);
  EXPECT_FALSE(n.occupied(5));  // retx cells are sent on grants, not bits
  n.push_fq(6, cell_no(4));
  EXPECT_EQ(n.purge_all_queues(), 2);
  EXPECT_FALSE(n.occupied(6));
}

TEST(CellMath, CellsForAndPayload) {
  EXPECT_EQ(cells_for(DataSize::bytes(1), kCell), 1);
  EXPECT_EQ(cells_for(DataSize::bytes(562), kCell), 1);
  EXPECT_EQ(cells_for(DataSize::bytes(563), kCell), 2);
  EXPECT_EQ(cells_for(DataSize::kilobytes(100), kCell), 178);
  // Last cell carries the remainder.
  Node n(0, cc_cfg(), kCell);
  n.add_flow(flow(0, 3, DataSize::bytes(1'000), Time::zero()));
  n.add_flow(flow(1, 5, DataSize::bytes(46), Time::zero()));
  const Time late = Time::us(1);
  EXPECT_EQ(n.take_cell_for(3, late, kInject).value().payload_bytes, 562);
  EXPECT_EQ(n.take_cell_for(3, late, kInject).value().payload_bytes, 438);
  EXPECT_EQ(n.take_cell_for(5, late, kInject).value().payload_bytes, 46);
}

TEST(LocalFlowPacing, CellsReleaseAtLineRate) {
  const LocalFlow f = flow(0, 1, DataSize::bytes(562 * 10), Time::zero());
  EXPECT_EQ(f.available(Time::zero(), kInject), 1);
  EXPECT_EQ(f.available(Time::ns(89), kInject), 1);
  EXPECT_EQ(f.available(Time::ns(90), kInject), 2);
  EXPECT_EQ(f.available(Time::ns(900), kInject), 10);
  EXPECT_EQ(f.available(Time::ms(1), kInject), 10);  // capped at total
}

TEST(Node, PendingDstsRoundRobinAcrossFlows) {
  Node n(0, cc_cfg(), kCell);
  n.add_flow(flow(0, 3, DataSize::bytes(562 * 2), Time::zero()));
  n.add_flow(flow(1, 5, DataSize::bytes(562), Time::zero()));
  // One cell per flow first (credit-based fairness), then the remainder.
  const auto all = pending_dsts(n, Time::us(1), 100);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], 3);
  EXPECT_EQ(all[1], 5);
  EXPECT_EQ(all[2], 3);
  EXPECT_EQ(pending_dsts(n, Time::us(1), 2).size(), 2u);
}

TEST(Node, PendingDstsFairAcrossServers) {
  // An elephant on server 1 must not dilute server 2's lone flow: the
  // two-level round-robin alternates servers first.
  Node n(0, cc_cfg(), kCell);
  LocalFlow elephant = flow(0, 3, DataSize::bytes(562 * 50), Time::zero());
  elephant.src_server = 1;
  LocalFlow mouse = flow(1, 5, DataSize::bytes(562 * 2), Time::zero());
  mouse.src_server = 2;
  n.add_flow(elephant);
  n.add_flow(mouse);
  const auto dsts = pending_dsts(n, Time::us(100), 6);
  ASSERT_EQ(dsts.size(), 6u);
  // Alternating until the mouse runs out: 3,5,3,5,3,3.
  EXPECT_EQ(dsts[0], 3);
  EXPECT_EQ(dsts[1], 5);
  EXPECT_EQ(dsts[2], 3);
  EXPECT_EQ(dsts[3], 5);
  EXPECT_EQ(dsts[4], 3);
  EXPECT_EQ(dsts[5], 3);
}

TEST(Node, PendingRespectsInjectionPacing) {
  Node n(0, cc_cfg(), kCell);
  n.add_flow(flow(0, 3, DataSize::bytes(562 * 100), Time::zero()));
  // At t=0 only the first cell has crossed the server link.
  EXPECT_EQ(pending_dsts(n, Time::zero(), 100).size(), 1u);
  EXPECT_EQ(pending_dsts(n, Time::ns(450), 100).size(), 6u);
}

TEST(Node, TakeCellForCutsInFifoOrderWithSeqs) {
  Node n(0, cc_cfg(), kCell);
  n.add_flow(flow(7, 3, DataSize::bytes(562 * 2), Time::zero()));
  const Time late = Time::us(10);
  auto c0 = n.take_cell_for(3, late, kInject);
  ASSERT_TRUE(c0.has_value());
  EXPECT_EQ(c0->flow, 7);
  EXPECT_EQ(c0->seq, 0);
  EXPECT_EQ(c0->dst_node, 3);
  auto c1 = n.take_cell_for(3, late, kInject);
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ(c1->seq, 1);
  EXPECT_FALSE(n.take_cell_for(3, late, kInject).has_value());
  EXPECT_FALSE(n.has_unfinished_flows());
}

TEST(Node, TakeCellForWrongDstFails) {
  Node n(0, cc_cfg(), kCell);
  n.add_flow(flow(0, 3, DataSize::bytes(562), Time::zero()));
  EXPECT_FALSE(n.take_cell_for(4, Time::us(1), kInject).has_value());
  EXPECT_TRUE(n.take_cell_for(3, Time::us(1), kInject).has_value());
}

TEST(Node, OldestFlowServedFirstPerDestination) {
  Node n(0, cc_cfg(), kCell);
  n.add_flow(flow(1, 3, DataSize::bytes(562), Time::zero()));
  n.add_flow(flow(2, 3, DataSize::bytes(562), Time::ns(1)));
  auto c = n.take_cell_for(3, Time::us(1), kInject);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->flow, 1);
}

TEST(Node, SprayRoundRobinsAcrossFlows) {
  Node n(0, cc_cfg(), kCell);
  n.add_flow(flow(1, 3, DataSize::bytes(562 * 4), Time::zero()));
  n.add_flow(flow(2, 5, DataSize::bytes(562 * 4), Time::zero()));
  const Time late = Time::us(10);
  auto a = n.take_any_cell(late, kInject);
  auto b = n.take_any_cell(late, kInject);
  ASSERT_TRUE(a && b);
  EXPECT_NE(a->flow, b->flow);  // strict alternation between the two flows
  auto c = n.take_any_cell(late, kInject);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->flow, a->flow);
}

TEST(Node, QueueGaugesTrackVqAndFq) {
  Node n(0, cc_cfg(), kCell);
  Cell c{};
  c.flow = 1;
  c.dst_node = 3;
  c.payload_bytes = 100;
  n.push_vq(2, c);
  n.push_fq(3, c);
  EXPECT_EQ(n.current_queue(), DataSize::bytes(2 * 562));
  EXPECT_EQ(n.peak_queue(), DataSize::bytes(2 * 562));
  EXPECT_TRUE(n.pop_vq(2).has_value());
  EXPECT_FALSE(n.pop_vq(2).has_value());
  EXPECT_EQ(n.fq_depth(3), 1);
  EXPECT_TRUE(n.pop_fq(3).has_value());
  EXPECT_EQ(n.current_queue(), DataSize::zero());
  EXPECT_EQ(n.peak_queue(), DataSize::bytes(2 * 562));  // peak is sticky
}

TEST(ReorderBuffer, InOrderPassthrough) {
  ReorderBuffer rb(3);
  std::vector<std::uint64_t> bits(ReorderBuffer::words_for(3));
  EXPECT_EQ(rb.on_arrival(bits, 0, 562), 1);
  EXPECT_EQ(rb.on_arrival(bits, 1, 562), 1);
  EXPECT_EQ(rb.on_arrival(bits, 2, 100), 1);
  EXPECT_TRUE(rb.complete());
  EXPECT_EQ(rb.peak_buffered(), DataSize::zero());
}

TEST(ReorderBuffer, OutOfOrderBuffersAndReleases) {
  ReorderBuffer rb(4);
  std::vector<std::uint64_t> bits(ReorderBuffer::words_for(4));
  EXPECT_EQ(rb.on_arrival(bits, 2, 562), 0);
  EXPECT_EQ(rb.on_arrival(bits, 1, 562), 0);
  EXPECT_EQ(rb.buffered_cells(), 2);
  EXPECT_EQ(rb.peak_buffered(), DataSize::bytes(2 * 562));
  // Seq 0 releases 0,1,2 at once.
  EXPECT_EQ(rb.on_arrival(bits, 0, 562), 3);
  EXPECT_EQ(rb.buffered_cells(), 0);
  EXPECT_FALSE(rb.complete());
  EXPECT_EQ(rb.on_arrival(bits, 3, 10), 1);
  EXPECT_TRUE(rb.complete());
}

TEST(ReorderBuffer, DuplicatesIgnored) {
  ReorderBuffer rb(2);
  std::vector<std::uint64_t> bits(ReorderBuffer::words_for(2));
  rb.on_arrival(bits, 0, 562);
  EXPECT_EQ(rb.on_arrival(bits, 0, 562), 0);
  rb.on_arrival(bits, 1, 562);
  EXPECT_TRUE(rb.complete());
}

TEST(ReorderBuffer, PeakSurvivesRelease) {
  ReorderBuffer rb(10);
  std::vector<std::uint64_t> bits(ReorderBuffer::words_for(10));
  for (std::int32_t s = 9; s >= 1; --s) rb.on_arrival(bits, s, 562);
  EXPECT_EQ(rb.peak_buffered(), DataSize::bytes(9 * 562));
  rb.on_arrival(bits, 0, 562);
  EXPECT_TRUE(rb.complete());
  EXPECT_EQ(rb.peak_buffered(), DataSize::bytes(9 * 562));
}

TEST(ReorderBuffer, RestoreRoundTripsAndChecksItsBitmap) {
  ReorderBuffer rb(70);
  std::vector<std::uint64_t> bits(ReorderBuffer::words_for(70));
  rb.on_arrival(bits, 0, 562);
  rb.on_arrival(bits, 5, 562);
  rb.on_arrival(bits, 66, 562);
  ckpt::Writer w;
  rb.serialize(w, bits);
  const std::string bytes = w.data();

  ReorderBuffer back;
  std::vector<std::uint64_t> back_bits(bits.size());
  ckpt::Reader r(bytes);
  ASSERT_TRUE(back.restore(r, back_bits)) << r.error();
  ckpt::Writer again;
  back.serialize(again, back_bits);
  EXPECT_EQ(again.data(), bytes);
  EXPECT_EQ(back.on_arrival(back_bits, 1, 562), 1);

  // Storage of the wrong size is rejected before any word is read.
  ReorderBuffer small;
  std::vector<std::uint64_t> one_word(1);
  ckpt::Reader short_r(bytes);
  EXPECT_FALSE(small.restore(short_r, one_word));

  // The buffered-cell count must be the bitmap's set bits: on_arrival skips
  // the bitmap when it reads zero.
  ckpt::Writer lying;
  ReorderBuffer(70).serialize(lying, bits);
  ReorderBuffer target;
  ckpt::Reader lying_r(lying.data());
  EXPECT_FALSE(target.restore(lying_r, back_bits));
  EXPECT_NE(lying_r.error().find("bitmap"), std::string::npos)
      << lying_r.error();
}

}  // namespace
}  // namespace sirius::node
