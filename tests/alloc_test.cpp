// Heap allocations, counted exactly: this binary replaces the global
// operator new with one that counts calls, so a test can pin how many
// allocations a piece of work makes. The simulator runs on one thread, so
// a plain counter is exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>
#include <string>
#include <vector>

#include "sim/sirius_sim.hpp"
#include "workload/generator.hpp"

namespace {

std::int64_t g_allocations = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n > 0 ? n : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sirius {
namespace {

sim::SiriusSimConfig net() {
  sim::SiriusSimConfig cfg;
  cfg.racks = 8;
  cfg.servers_per_rack = 4;
  cfg.base_uplinks = 4;
  return cfg;
}

workload::Workload make_wl(const sim::SiriusSimConfig& cfg,
                           std::int64_t flows, double load = 0.5) {
  workload::GeneratorConfig g;
  g.servers = cfg.servers();
  g.server_rate = cfg.server_share();
  g.load = load;
  g.flow_count = flows;
  g.max_flow_size = DataSize::megabytes(1);
  g.seed = 9;
  return workload::generate(g);
}

std::int64_t restore_allocations(const sim::SiriusSimConfig& cfg,
                                 const workload::Workload& w,
                                 const std::string& payload) {
  sim::SiriusSim target(cfg, w);
  std::string error;
  const std::int64_t before = g_allocations;
  const bool ok = target.restore_state(payload, &error);
  const std::int64_t after = g_allocations;
  EXPECT_TRUE(ok) << error;
  return after - before;
}

std::uint64_t load_u64(const std::string& s, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(s[at + i]))
         << (8 * i);
  }
  return v;
}

struct RxSplit {
  std::string stripped;  ///< the payload without complete flows' records
  std::int64_t present = 0;  ///< records removed
};

// Rewrites the receive-state section ("RXBF", the flow count, then per flow
// a presence byte and, if present, completion, aborted flag and reorder
// buffer) so that no complete flow has receive state; everything else is
// kept. Without faults a complete flow has no cell left in a queue or on
// the wire, and such a cell would need its flow's record.
RxSplit strip_receive_state(const std::string& payload, std::size_t flows) {
  RxSplit out;
  std::size_t tag = payload.find("RXBF");
  while (tag != std::string::npos && load_u64(payload, tag + 4) != flows) {
    tag = payload.find("RXBF", tag + 1);
  }
  EXPECT_NE(tag, std::string::npos);
  if (tag == std::string::npos) return out;
  std::size_t p = tag + 12;
  out.stripped = payload.substr(0, p);
  for (std::size_t f = 0; f < flows; ++f) {
    const std::size_t at = p;
    if (payload[p++] == 0) {
      out.stripped += '\0';
      continue;
    }
    // completion, aborted, total cells, next expected
    const bool complete = load_u64(payload, p + 9) == load_u64(payload, p + 17);
    p += 8 + 1 + 8 + 8;
    const std::uint64_t words = load_u64(payload, p);
    p += 8 + 8 * words + 3 * 8;  // bitmap, buffered cells/bytes, peak
    if (complete) {
      ++out.present;
      out.stripped += '\0';
    } else {
      out.stripped += payload.substr(at, p - at);
    }
  }
  out.stripped += payload.substr(p);
  return out;
}

struct RxCost {
  std::int64_t allocations = 0;
  std::int64_t present = 0;
};

// Takes a snapshot halfway through the arrivals of `flows` flows and
// counts the allocations its complete flows' receive records add to one
// restore_state() into a fresh sim: the restore's allocations minus those
// of the same snapshot with those records removed. Queue and wire state
// are the same in both, so the difference is receive state alone.
RxCost receive_state_allocations(std::int64_t flows) {
  auto cfg = net();
  const auto w = make_wl(cfg, flows);
  std::string snap;
  cfg.checkpoint_every = w.last_arrival() / 2;
  cfg.checkpoint_sink = [&snap](std::int64_t, Time, const std::string& p) {
    if (snap.empty()) snap = p;
  };
  EXPECT_EQ(sim::SiriusSim(cfg, w).run().incomplete_flows, 0);
  cfg.checkpoint_sink = nullptr;
  const RxSplit split = strip_receive_state(snap, w.flows.size());
  return {restore_allocations(cfg, w, snap) -
              restore_allocations(cfg, w, split.stripped),
          split.present};
}

TEST(RestoreAllocations, FlatInFlowCount) {
  const RxCost small = receive_state_allocations(400);
  const RxCost large = receive_state_allocations(4000);
  // The larger snapshot holds about ten times the complete flows' records...
  EXPECT_GT(small.present, 100);
  EXPECT_GT(large.present, 5 * small.present);
  // ...and restoring them allocates exactly as often.
  EXPECT_EQ(large.allocations, small.allocations);
}

// Checkpoint intervals up to the last arrival.
constexpr std::int64_t kIntervals = 40;

// The slot loop's allocations in each interval between consecutive
// checkpoints of a run of `cfg` over `w`. The checkpoint sink is the
// clock: it counts on entry, then serializes the same state once more to
// learn what the payload it was just handed cost, and takes that out of
// the interval.
std::vector<std::int64_t> slot_loop_allocations(sim::SiriusSimConfig cfg,
                                                const workload::Workload& w) {
  std::vector<std::int64_t> out;
  const sim::SiriusSim* self = nullptr;
  std::int64_t mark = -1;  // the count once the previous sink call was done
  cfg.checkpoint_every = w.last_arrival() / kIntervals;
  cfg.checkpoint_sink = [&](std::int64_t, Time, const std::string&) {
    const std::int64_t entry = g_allocations;
    const std::string again = self->checkpoint_state();
    const std::int64_t serialize = g_allocations - entry;
    if (mark >= 0) out.push_back(entry - mark - serialize);
    mark = g_allocations;
  };
  sim::SiriusSim sim(cfg, w);
  self = &sim;
  EXPECT_EQ(sim.run().incomplete_flows, 0);
  return out;
}

std::string show(const std::vector<std::int64_t>& v) {
  std::string s;
  for (const std::int64_t x : v) s += std::to_string(x) + " ";
  return s;
}

// Warm-up intervals, measured intervals, and what doubling the measured
// span may add. Every node keeps its LOCAL flows' records, live list and
// queue-pool links, and the sim its receive records, bitmap words and FCT
// samples; all grow by doubling with the flows injected, so each may double
// about once more in the second span (28 to 33 allocations in the four
// runs below). One allocation per audit would add at least 120, one per
// round about 7 600.
constexpr std::size_t kWarmup = 5;
constexpr std::size_t kSpan = 15;
constexpr std::int64_t kGrowth = 48;

void expect_allocation_free(const sim::SiriusSimConfig& cfg,
                            const workload::Workload& w) {
  const auto per = slot_loop_allocations(cfg, w);
  ASSERT_GE(per.size(), kWarmup + 2 * kSpan);
  const auto from = per.begin() + kWarmup;
  const std::int64_t once = std::accumulate(from, from + kSpan, 0LL);
  const std::int64_t twice = std::accumulate(from, from + 2 * kSpan, 0LL);
  EXPECT_LE(twice - once, kGrowth) << "per interval: " << show(per);
}

TEST(SlotLoopAllocations, Valiant) {
  const auto cfg = net();
  expect_allocation_free(cfg, make_wl(cfg, 4000));
}

TEST(SlotLoopAllocations, Ideal) {
  auto cfg = net();
  cfg.routing = sim::RoutingMode::kIdeal;
  expect_allocation_free(cfg, make_wl(cfg, 4000));
}

TEST(SlotLoopAllocations, Direct) {
  auto cfg = net();
  cfg.routing = sim::RoutingMode::kDirect;
  expect_allocation_free(cfg, make_wl(cfg, 4000, 0.3));
}

// A rack dies and comes back inside the first measured span, and a grey
// link loses bursts through both spans: detection, purges, retransmission
// and both schedule swaps run, and the failover pass runs every round.
TEST(SlotLoopAllocations, RackFaultAndGreyLink) {
  auto cfg = net();
  const auto w = make_wl(cfg, 4000);
  const Time step = w.last_arrival() / kIntervals;
  cfg.faults.fail_rack(3, step * 7, step * 12);
  cfg.faults.grey_link(2, 5, 0.2, step * 3);
  expect_allocation_free(cfg, w);
}

}  // namespace
}  // namespace sirius
