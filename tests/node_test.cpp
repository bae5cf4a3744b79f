// Unit tests for node/: cells, LOCAL buffer semantics, queues, reordering.
#include <gtest/gtest.h>

#include <deque>

#include "ckpt/io.hpp"
#include "common/rng.hpp"
#include "node/cell.hpp"
#include "node/fifo_ring.hpp"
#include "node/node.hpp"
#include "node/reorder_buffer.hpp"

namespace sirius::node {
namespace {

constexpr DataSize kCell = DataSize::bytes(562);
const Time kInject = Time::ns(90);  // one cell per 90 ns at 50 Gbps

cc::RequestGrantConfig cc_cfg() { return cc::RequestGrantConfig{8, 4}; }

std::vector<NodeId> pending_dsts(const Node& n, Time now, std::size_t limit) {
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

void write_cell(ckpt::Writer& w, const Cell& c) {
  w.i64(c.flow);
  w.i32(c.seq);
  w.i32(c.dst_node);
  w.i32(c.dst_server);
  w.i32(c.payload_bytes);
  w.i32(c.retries);
}

TEST(FifoRing, KeepsFifoOrderAcrossWrapAndGrowth) {
  // Random pushes and pops against a std::deque reference: the head wraps
  // around the power-of-two storage many times and the storage doubles
  // with elements both straddling the wrap and not.
  FifoRing<Cell> ring;
  std::deque<Cell> ref;
  Rng rng(3);
  std::int32_t next = 0;
  for (int step = 0; step < 5000; ++step) {
    const bool push = ref.empty() || rng.below(100) < (step < 2500 ? 55 : 45);
    if (push) {
      ring.push(cell_no(next));
      ref.push_back(cell_no(next));
      ++next;
    } else if (rng.below(4) == 0) {
      ring.rotate();
      ref.push_back(ref.front());
      ref.pop_front();
    } else {
      ASSERT_EQ(ring.front().flow, ref.front().flow);
      ring.pop();
      ref.pop_front();
    }
    ASSERT_EQ(ring.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ring[i].flow, ref[i].flow) << "step " << step << " index " << i;
    }
  }
  EXPECT_GT(ring.capacity(), 4u);  // it grew past the first allocation
}

TEST(FifoRing, SerializesLikeTheDeque) {
  // Checkpoints write a queue as its count then its cells front to back;
  // the ring must produce the same bytes as the deque it replaced, also
  // after wrap-around.
  FifoRing<Cell> ring;
  std::deque<Cell> ref;
  for (std::int32_t k = 0; k < 6; ++k) {
    ring.push(cell_no(k));
    ref.push_back(cell_no(k));
  }
  for (int k = 0; k < 5; ++k) {
    ring.pop();
    ref.pop_front();
  }
  for (std::int32_t k = 6; k < 12; ++k) {
    ring.push(cell_no(k));
    ref.push_back(cell_no(k));
  }
  ckpt::Writer a;
  a.u64(ring.size());
  for (std::size_t i = 0; i < ring.size(); ++i) write_cell(a, ring[i]);
  ckpt::Writer b;
  b.u64(ref.size());
  for (const Cell& c : ref) write_cell(b, c);
  EXPECT_EQ(a.data(), b.data());
}

TEST(FifoRing, ClearKeepsStorage) {
  FifoRing<std::size_t> ring;
  EXPECT_EQ(ring.capacity(), 0u);  // nothing allocated until the first push
  for (std::size_t k = 0; k < 9; ++k) ring.push(k);
  const std::size_t cap = ring.capacity();
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), cap);
  ring.push(42);
  EXPECT_EQ(ring.front(), 42u);
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
  EXPECT_EQ(payload_of(DataSize::bytes(1'000), kCell, 0), 562);
  EXPECT_EQ(payload_of(DataSize::bytes(1'000), kCell, 1), 438);
  EXPECT_EQ(payload_of(DataSize::bytes(46), kCell, 0), 46);
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
