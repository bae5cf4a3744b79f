// Checkpoint/restore tests: `sirius.ckpt.v1` framing and corruption
// rejection, full-simulator snapshot round-trips, and the determinism
// contract — a run resumed from a checkpoint taken *inside* a grey-link
// fault window is bit-identical to the uninterrupted run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/io.hpp"
#include "common/time.hpp"
#include "ctrl/peer_health.hpp"
#include "node/cell.hpp"
#include "node/node.hpp"
#include "sim/sirius_sim.hpp"
#include "telemetry/hub.hpp"
#include "workload/generator.hpp"

namespace sirius {
namespace {

namespace fs = std::filesystem;

// ---- field codec -----------------------------------------------------------

// One field of each Writer kind against its literal little-endian bytes,
// so a word-wide codec cannot silently change a width or the byte order.
TEST(CkptIo, FieldLayoutIsLittleEndian) {
  ckpt::Writer w;
  w.u8(0xab);
  w.b(true);
  w.u32(0x01020304u);
  w.u64(0x0102030405060708ull);
  w.i32(-2);
  w.i64(-3);
  w.f64(1.5);
  w.str("hi");
  w.tag(0x47415421u);
  w.vec_u8({1, 2});
  w.vec_i32({-1, 5});
  w.vec_u64({0x1122334455667788ull});
  w.vec_i64({-2});
  w.vec_f64({-2.25});
  const std::vector<std::uint8_t> bytes = {
      0xab,                                            // u8
      0x01,                                            // b
      0x04, 0x03, 0x02, 0x01,                          // u32
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // u64
      0xfe, 0xff, 0xff, 0xff,                          // i32 -2
      0xfd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // i64 -3
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f,  // f64 1.5
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // str length
      'h',  'i',                                       // str body
      0x21, 0x54, 0x41, 0x47,                          // tag
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // vec_u8 count
      0x01, 0x02,                                      //
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // vec_i32 count
      0xff, 0xff, 0xff, 0xff, 0x05, 0x00, 0x00, 0x00,  //
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // vec_u64 count
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  //
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // vec_i64 count
      0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  //
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // vec_f64 count
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0xc0,  // -2.25
  };
  const std::string expected(bytes.begin(), bytes.end());
  ASSERT_EQ(w.data(), expected);

  // Reads every field back; false as soon as the reader has failed.
  const auto read_all = [](ckpt::Reader& r) {
    const bool values_match =
        r.u8() == 0xab && r.b() && r.u32() == 0x01020304u &&
        r.u64() == 0x0102030405060708ull && r.i32() == -2 &&
        r.i64() == -3 && r.f64() == 1.5 && r.str() == "hi" &&
        r.expect_tag(0x47415421u, "layout") &&
        r.vec_u8("u8s") == std::vector<std::uint8_t>{1, 2} &&
        r.vec_i32("i32s") == std::vector<std::int32_t>{-1, 5} &&
        r.vec_u64("u64s") ==
            std::vector<std::uint64_t>{0x1122334455667788ull} &&
        r.vec_i64("i64s") == std::vector<std::int64_t>{-2} &&
        r.vec_f64("f64s") == std::vector<double>{-2.25};
    return values_match && r.expect_end();
  };
  ckpt::Reader full(expected);
  EXPECT_TRUE(read_all(full)) << full.error();
  for (std::size_t n = 0; n < expected.size(); ++n) {
    ckpt::Reader r(std::string_view(expected).substr(0, n));
    (void)read_all(r);
    EXPECT_FALSE(r.ok()) << "prefix of " << n << " bytes";
  }
}

// ---- file framing ----------------------------------------------------------

TEST(CkptFrame, RoundTripPreservesPayload) {
  const std::string payload = "hello checkpoint \x00\x01\xff payload";
  const std::string file = ckpt::frame(payload);
  EXPECT_EQ(file.size(), payload.size() + 24);
  const ckpt::LoadResult r = ckpt::parse(file);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_EQ(r.payload, payload);
}

TEST(CkptFrame, SaveThenLoadRoundTrips) {
  const fs::path path = fs::temp_directory_path() / "sirius_ckpt_rt.ckpt";
  std::string error;
  ASSERT_TRUE(ckpt::save(path, "abc123", &error)) << error;
  const ckpt::LoadResult r = ckpt::load(path);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_EQ(r.payload, "abc123");
  fs::remove(path);
}

TEST(CkptFrame, MissingFileIsIoError) {
  const ckpt::LoadResult r =
      ckpt::load(fs::temp_directory_path() / "sirius_ckpt_nonexistent.ckpt");
  EXPECT_EQ(r.status, ckpt::LoadStatus::kIoError);
  EXPECT_FALSE(r.message.empty());
}

// Every corruption class is rejected with its own status and a non-empty
// one-line diagnostic; none of them may crash (asan/ubsan builds run this
// same binary).
TEST(CkptFrame, CorruptionMatrix) {
  const std::string good = ckpt::frame("determinism is a feature");

  EXPECT_EQ(ckpt::parse("").status, ckpt::LoadStatus::kEmptyFile);

  EXPECT_EQ(ckpt::parse(good.substr(0, 10)).status,
            ckpt::LoadStatus::kTruncatedHeader);

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_EQ(ckpt::parse(bad_magic).status, ckpt::LoadStatus::kBadMagic);

  std::string bad_version = good;
  bad_version[8] = 0x7f;  // claims format version 127
  EXPECT_EQ(ckpt::parse(bad_version).status, ckpt::LoadStatus::kBadVersion);

  EXPECT_EQ(ckpt::parse(good.substr(0, good.size() - 1)).status,
            ckpt::LoadStatus::kTruncatedPayload);

  std::string flipped = good;
  flipped[24] = static_cast<char>(flipped[24] ^ 0x40);  // payload bit-flip
  EXPECT_EQ(ckpt::parse(flipped).status, ckpt::LoadStatus::kCrcMismatch);

  // Distinct classes produce distinct messages.
  const std::string m1 = ckpt::parse("").message;
  const std::string m2 = ckpt::parse(bad_magic).message;
  const std::string m3 = ckpt::parse(flipped).message;
  EXPECT_FALSE(m1.empty());
  EXPECT_NE(m1, m2);
  EXPECT_NE(m2, m3);
  EXPECT_NE(m1, m3);
}

// ---- simulator snapshots ---------------------------------------------------

sim::SiriusSimConfig small_net() {
  sim::SiriusSimConfig cfg;
  cfg.racks = 4;
  cfg.servers_per_rack = 2;
  cfg.base_uplinks = 2;
  cfg.seed = 5;
  return cfg;
}

workload::Workload make_wl(const sim::SiriusSimConfig& cfg, double load,
                           std::int64_t flows) {
  workload::GeneratorConfig g;
  g.servers = cfg.servers();
  g.server_rate = cfg.server_share();
  g.load = load;
  g.flow_count = flows;
  g.max_flow_size = DataSize::megabytes(2);
  g.seed = 33;
  return workload::generate(g);
}

TEST(CkptSim, FreshStateRoundTripsBitIdentical) {
  const auto cfg = small_net();
  const auto w = make_wl(cfg, 0.3, 50);
  sim::SiriusSim a(cfg, w);
  const std::string snap = a.checkpoint_state();
  ASSERT_FALSE(snap.empty());

  sim::SiriusSim b(cfg, w);
  std::string error;
  ASSERT_TRUE(b.restore_state(snap, &error)) << error;
  EXPECT_EQ(b.checkpoint_state(), snap);
}

TEST(CkptSim, RestoreRejectsGarbageWithoutCrashing) {
  const auto cfg = small_net();
  const auto w = make_wl(cfg, 0.3, 50);
  sim::SiriusSim s(cfg, w);
  std::string error;
  EXPECT_FALSE(s.restore_state("this is not a checkpoint", &error));
  EXPECT_FALSE(error.empty());
}

TEST(CkptSim, RestoreRejectsEveryTruncation) {
  const auto cfg = small_net();
  const auto w = make_wl(cfg, 0.3, 50);
  sim::SiriusSim a(cfg, w);
  const std::string snap = a.checkpoint_state();

  sim::SiriusSim b(cfg, w);
  const std::size_t cuts[] = {0, 1, 7, snap.size() / 3, snap.size() - 1};
  for (const std::size_t cut : cuts) {
    std::string error;
    EXPECT_FALSE(b.restore_state(std::string_view(snap).substr(0, cut),
                                 &error))
        << "truncation at " << cut << " bytes was accepted";
    EXPECT_FALSE(error.empty());
  }
}

TEST(CkptSim, RestoreSurvivesArbitraryByteFlips) {
  // Hostile-input sweep: flip one byte at a stride of positions across a
  // valid payload. Restore may accept (the flip hit a value with no
  // validation range, e.g. a statistic) or reject — but it must never
  // crash or read out of bounds. The target sim is reused on purpose: a
  // failed restore leaves it unfit to *run*, but always safe to restore
  // into again.
  const auto cfg = small_net();
  const auto w = make_wl(cfg, 0.3, 50);
  sim::SiriusSim a(cfg, w);
  const std::string snap = a.checkpoint_state();

  sim::SiriusSim b(cfg, w);
  for (std::size_t pos = 0; pos < snap.size(); pos += 211) {
    std::string mutated = snap;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0xa5);
    std::string error;
    (void)b.restore_state(mutated, &error);
  }
}

// A CRC-valid snapshot can still describe an impossible node: the node's
// retransmission total or occupancy gauge disagreeing with the cells its
// queues hold. Both are rejected. The cases patch node 0's fields in a
// fresh snapshot and re-frame the payload, so the CRC is valid.
TEST(CkptSim, CorruptionMatrixRejectsInconsistentNodeCounters) {
  const auto cfg = small_net();
  const auto w = make_wl(cfg, 0.3, 50);
  const std::string snap = sim::SiriusSim(cfg, w).checkpoint_state();

  // A fresh node serializes like every node of a fresh sim; its last 24
  // bytes are the retransmission total and the gauge (current, peak).
  node::Node fresh(0,
                   cc::RequestGrantConfig{cfg.racks, cfg.queue_limit,
                                          cfg.spread},
                   cfg.slots.cell_size());
  ckpt::Writer nw;
  fresh.serialize(nw);
  const std::size_t at = snap.find(nw.data());
  ASSERT_NE(at, std::string::npos);
  const std::size_t retx_total = at + nw.data().size() - 24;
  const std::size_t gauge = at + nw.data().size() - 16;

  const auto patched = [&snap](std::size_t pos,
                               std::vector<std::int64_t> values) {
    ckpt::Writer v;
    for (const std::int64_t x : values) v.i64(x);
    std::string p = snap;
    p.replace(pos, v.data().size(), v.data());
    return p;
  };
  const std::int64_t cell = cfg.slots.cell_size().in_bytes();
  struct Case {
    const char* what;
    std::string payload;
    const char* expect;
  };
  const Case cases[] = {
      {"retx total without retx cells", patched(retx_total, {1}),
       "retransmission total"},
      {"gauge holding a phantom cell", patched(gauge, {cell, cell}),
       "gauge"},
  };
  for (const Case& c : cases) {
    const ckpt::LoadResult framed = ckpt::parse(ckpt::frame(c.payload));
    ASSERT_TRUE(framed.ok()) << c.what << ": " << framed.message;
    sim::SiriusSim target(cfg, w);
    std::string error;
    EXPECT_FALSE(target.restore_state(framed.payload, &error)) << c.what;
    EXPECT_NE(error.find(c.expect), std::string::npos)
        << c.what << ": " << error;
  }
  // The unpatched payload still restores, so the cases fail for the
  // patched fields alone.
  sim::SiriusSim ok(cfg, w);
  std::string error;
  EXPECT_TRUE(ok.restore_state(snap, &error)) << error;
}

// Receive state is checked against the workload too: a CRC-valid snapshot
// must not give a flow a reorder buffer over a different number of cells
// than the flow has, nor give any to an intra-rack flow, which the ToR
// switches without the core. The cases patch the record of a flow that
// finished before the snapshot, found by its bytes, and re-frame the
// payload, so the CRC is valid.
TEST(CkptSim, CorruptionMatrixRejectsImpossibleReceiveState) {
  auto cfg = small_net();
  const auto w = make_wl(cfg, 0.3, 50);
  std::string snap;
  Time snap_at;
  cfg.checkpoint_every = w.last_arrival();
  cfg.checkpoint_sink = [&](std::int64_t, Time now, const std::string& p) {
    if (!snap.empty()) return;
    snap = p;
    snap_at = now;
  };
  const sim::SiriusSimResult done = sim::SiriusSim(cfg, w).run();
  cfg.checkpoint_sink = nullptr;
  ASSERT_FALSE(snap.empty());

  // Flow j crosses the core and finished before the snapshot; flow j + 1
  // stays inside one rack and arrived before it. One more cell than j's
  // still fits j's bitmap words.
  const DataSize cell = cfg.slots.cell_size();
  const auto same_rack = [&cfg](const workload::Flow& f) {
    return f.src_server / cfg.servers_per_rack ==
           f.dst_server / cfg.servers_per_rack;
  };
  std::size_t j = 0;
  for (; j + 1 < w.flows.size(); ++j) {
    const workload::Flow& f = w.flows[j];
    const workload::Flow& next = w.flows[j + 1];
    if (!same_rack(f) && done.per_flow_completion[j] < snap_at &&
        node::cells_for(f.size, cell) % 64 != 0 && same_rack(next) &&
        next.arrival < snap_at) {
      break;
    }
  }
  ASSERT_LT(j + 1, w.flows.size()) << "no flow pair fits the cases";
  const std::int64_t cells = node::cells_for(w.flows[j].size, cell);

  // j's record up to its buffered-cell count: present, its completion, not
  // aborted, the prefix at the last cell, a clear bitmap, nothing buffered.
  ckpt::Writer head;
  head.b(true);
  head.i64(done.per_flow_completion[j].picoseconds());
  head.b(false);
  head.i64(cells);
  head.i64(cells);
  const std::size_t words = static_cast<std::size_t>((cells + 63) / 64);
  head.vec_u64(std::vector<std::uint64_t>(words, 0));
  head.i64(0);
  const std::size_t record = snap.find(head.data());
  ASSERT_NE(record, std::string::npos);
  // The buffered bytes and the peak follow.
  const std::size_t record_len = head.data().size() + 16;

  std::string wrong_cells = snap;
  {
    ckpt::Writer v;
    v.i64(cells + 1);
    wrong_cells.replace(record + 10, v.data().size(), v.data());
  }
  // j + 1's absent byte follows j's record; a copy of j's record there
  // hands the intra-rack flow a finished reorder buffer.
  std::string intra_rack = snap;
  intra_rack.replace(record + record_len, 1, snap.substr(record, record_len));

  struct Case {
    const char* what;
    const std::string& payload;
    const char* expect;
  };
  const Case cases[] = {
      {"reorder buffer over one cell more than the flow", wrong_cells,
       "total cells"},
      {"receive state for an intra-rack flow", intra_rack, "intra-rack"},
  };
  for (const Case& c : cases) {
    const ckpt::LoadResult framed = ckpt::parse(ckpt::frame(c.payload));
    ASSERT_TRUE(framed.ok()) << c.what << ": " << framed.message;
    sim::SiriusSim target(cfg, w);
    std::string error;
    EXPECT_FALSE(target.restore_state(framed.payload, &error)) << c.what;
    EXPECT_NE(error.find(c.expect), std::string::npos)
        << c.what << ": " << error;
  }
  sim::SiriusSim ok(cfg, w);
  std::string error;
  EXPECT_TRUE(ok.restore_state(snap, &error)) << error;
}

TEST(CkptSim, RestoreRejectsMismatchedWorkload) {
  const auto cfg = small_net();
  const auto w = make_wl(cfg, 0.3, 50);
  sim::SiriusSim a(cfg, w);
  const std::string snap = a.checkpoint_state();

  const auto w2 = make_wl(cfg, 0.3, 60);  // different workload
  sim::SiriusSim b(cfg, w2);
  std::string error;
  EXPECT_FALSE(b.restore_state(snap, &error));
  EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
}

TEST(CkptSim, RestoreRejectsFaultDynamismMismatch) {
  auto cfg = small_net();
  const auto w = make_wl(cfg, 0.3, 50);
  sim::SiriusSim plain(cfg, w);

  auto faulted_cfg = cfg;
  faulted_cfg.faults.fail_rack(2, Time::us(60));
  sim::SiriusSim faulted(faulted_cfg, w);

  std::string error;
  EXPECT_FALSE(faulted.restore_state(plain.checkpoint_state(), &error));
  EXPECT_NE(error.find("fault"), std::string::npos) << error;
}

// ---- the determinism contract ----------------------------------------------

struct Snap {
  std::int64_t slot = 0;
  Time at;
  std::string payload;
};

sim::SiriusSimConfig faulted_net() {
  sim::SiriusSimConfig cfg;
  cfg.racks = 8;
  cfg.servers_per_rack = 4;
  cfg.base_uplinks = 4;
  cfg.seed = 7;
  cfg.record_recovery_curve = true;
  // Rack 3 fail-stops at 60 us; link 2->5 goes fully grey 100-160 us. The
  // restore point below lands inside that window, so the resumed run must
  // reproduce detector counters, retransmission timers and the Bernoulli
  // stream mid-episode.
  cfg.faults.fail_rack(3, Time::us(60));
  cfg.faults.grey_link(2, 5, 1.0, Time::us(100), Time::us(160));
  return cfg;
}

TEST(CkptDeterminism, ResumeMidGreyFaultIsBitIdentical) {
  auto cfg_a = faulted_net();
  const auto w = make_wl(cfg_a, 0.5, 400);

  std::vector<Snap> snaps_a;
  cfg_a.checkpoint_every = Time::us(25);
  cfg_a.checkpoint_sink = [&snaps_a](std::int64_t slot, Time at,
                                     const std::string& payload) {
    snaps_a.push_back({slot, at, payload});
  };
  sim::SiriusSim a(cfg_a, w);
  const auto ra = a.run();

  // Pick the snapshot inside the grey window.
  std::size_t idx = snaps_a.size();
  for (std::size_t i = 0; i < snaps_a.size(); ++i) {
    if (snaps_a[i].at >= Time::us(110) && snaps_a[i].at <= Time::us(150)) {
      idx = i;
      break;
    }
  }
  ASSERT_LT(idx, snaps_a.size())
      << "run ended before the grey window; grow the workload";

  auto cfg_b = faulted_net();
  std::vector<Snap> snaps_b;
  cfg_b.checkpoint_every = Time::us(25);
  cfg_b.checkpoint_sink = [&snaps_b](std::int64_t slot, Time at,
                                     const std::string& payload) {
    snaps_b.push_back({slot, at, payload});
  };
  sim::SiriusSim b(cfg_b, w);
  std::string error;
  ASSERT_TRUE(b.restore_state(snaps_a[idx].payload, &error)) << error;
  const auto rb = b.run();

  // The resumed run emits exactly the straight run's remaining
  // checkpoints, byte for byte — full simulator state (queues, RNG
  // streams, detectors, retx heap, telemetry) matches at every later
  // cadence point, not just at the end.
  ASSERT_EQ(snaps_b.size(), snaps_a.size() - idx - 1);
  for (std::size_t i = 0; i < snaps_b.size(); ++i) {
    EXPECT_EQ(snaps_b[i].slot, snaps_a[idx + 1 + i].slot);
    EXPECT_EQ(snaps_b[i].payload, snaps_a[idx + 1 + i].payload)
        << "state diverged by checkpoint at slot " << snaps_b[i].slot;
  }

  // And the end-of-run results agree exactly.
  EXPECT_EQ(rb.slots_simulated, ra.slots_simulated);
  EXPECT_EQ(rb.cells_delivered, ra.cells_delivered);
  EXPECT_EQ(rb.incomplete_flows, ra.incomplete_flows);
  EXPECT_EQ(rb.rejected_flows, ra.rejected_flows);
  EXPECT_EQ(rb.goodput_normalized, ra.goodput_normalized);
  EXPECT_EQ(rb.fct.short_fct_p99_ms, ra.fct.short_fct_p99_ms);
  EXPECT_EQ(rb.failover.cells_dropped, ra.failover.cells_dropped);
  EXPECT_EQ(rb.failover.cells_retransmitted,
            ra.failover.cells_retransmitted);
  EXPECT_EQ(rb.failover.schedule_swaps, ra.failover.schedule_swaps);
  EXPECT_EQ(rb.failover.detection_rounds, ra.failover.detection_rounds);
  ASSERT_EQ(rb.per_flow_completion.size(), ra.per_flow_completion.size());
  for (std::size_t i = 0; i < ra.per_flow_completion.size(); ++i) {
    EXPECT_EQ(rb.per_flow_completion[i], ra.per_flow_completion[i])
        << "flow " << i << " completion time diverged";
  }
}

// The slot kernel reads peers from a table derived from the schedule. A
// snapshot taken after a fault-driven schedule swap restores into a sim
// built over the full membership, so the restore must rebuild that table
// (and the rejoin swap must rebuild it again) for the resumed run to match
// the straight one.
TEST(CkptDeterminism, ResumeAfterScheduleSwapIsBitIdentical) {
  auto cfg_a = faulted_net();
  cfg_a.faults = ctrl::FaultPlan{};
  cfg_a.faults.fail_rack(3, Time::us(40), Time::us(200));
  const auto w = make_wl(cfg_a, 0.5, 400);

  telemetry::Hub hub;
  cfg_a.telemetry = &hub;
  const telemetry::Counter* swaps = nullptr;  // registered by the sim
  struct Tagged {
    Snap snap;
    std::int64_t swaps = 0;
  };
  std::vector<Tagged> snaps_a;
  cfg_a.checkpoint_every = Time::us(10);
  cfg_a.checkpoint_sink = [&](std::int64_t slot, Time at,
                              const std::string& payload) {
    snaps_a.push_back({{slot, at, payload}, swaps->value()});
  };
  sim::SiriusSim a(cfg_a, w);
  swaps = hub.metrics().find_counter("failover.schedule_swaps");
  ASSERT_NE(swaps, nullptr);
  const auto ra = a.run();
  ASSERT_EQ(ra.failover.schedule_swaps, 2) << "out and back in";

  // The first snapshot taken while the rack is swapped out.
  std::size_t idx = snaps_a.size();
  for (std::size_t i = 0; i < snaps_a.size(); ++i) {
    if (snaps_a[i].swaps == 1) {
      idx = i;
      break;
    }
  }
  ASSERT_LT(idx, snaps_a.size());

  auto cfg_b = faulted_net();
  cfg_b.faults = cfg_a.faults;
  std::vector<Snap> snaps_b;
  cfg_b.checkpoint_every = Time::us(10);
  cfg_b.checkpoint_sink = [&snaps_b](std::int64_t slot, Time at,
                                     const std::string& payload) {
    snaps_b.push_back({slot, at, payload});
  };
  sim::SiriusSim b(cfg_b, w);
  std::string error;
  ASSERT_TRUE(b.restore_state(snaps_a[idx].snap.payload, &error)) << error;
  const auto rb = b.run();

  ASSERT_EQ(snaps_b.size(), snaps_a.size() - idx - 1);
  for (std::size_t i = 0; i < snaps_b.size(); ++i) {
    EXPECT_EQ(snaps_b[i].payload, snaps_a[idx + 1 + i].snap.payload)
        << "state diverged by checkpoint at slot " << snaps_b[i].slot;
  }
  EXPECT_EQ(rb.slots_simulated, ra.slots_simulated);
  EXPECT_EQ(rb.cells_delivered, ra.cells_delivered);
  EXPECT_EQ(rb.failover.schedule_swaps, ra.failover.schedule_swaps);
  EXPECT_EQ(rb.per_flow_completion, ra.per_flow_completion);
}

// The failover section of a CRC-valid snapshot can still hold an
// impossible timer or view: a retransmission deadline the timer wheel
// cannot hold (already past, or further out than any timeout), a timer for
// a flow the workload does not have, or a link verdict byte other than 0
// or 1. The cases patch a snapshot taken inside
// the grey window, where timers are live, and re-frame it.
TEST(CkptSim, CorruptionMatrixRejectsImpossibleFailoverState) {
  auto cfg = faulted_net();
  const auto w = make_wl(cfg, 0.5, 400);
  std::string snap;
  cfg.checkpoint_every = Time::us(125);
  cfg.checkpoint_sink = [&snap](std::int64_t, Time, const std::string& p) {
    if (snap.empty()) snap = p;
  };
  sim::SiriusSim(cfg, w).run();
  cfg.checkpoint_sink = nullptr;
  cfg.checkpoint_every = Time::zero();
  ASSERT_FALSE(snap.empty());

  // The failover section: per rack a detector and a view, whose encodings
  // have a fixed size for a given rack count, then the ground-truth vector
  // and the timer count.
  const auto encoded_size = [](const auto& x) {
    ckpt::Writer v;
    x.serialize(v);
    return v.data().size();
  };
  const auto racks = static_cast<std::size_t>(cfg.racks);
  const std::size_t detector =
      encoded_size(ctrl::PeerHealth(cfg.racks, sim::kMissThreshold));
  const std::size_t view = encoded_size(ctrl::MembershipView(cfg.racks, 0, 2));
  const std::size_t falo = snap.find("FALO");
  ASSERT_NE(falo, std::string::npos);
  const std::size_t first_view = falo + 4 + 8 + racks * detector + 8;
  const std::size_t timer_count = first_view + racks * view + 8 + racks;
  ckpt::Reader count(std::string_view(snap).substr(timer_count, 8));
  ASSERT_GT(count.u64(), 0u) << "no live timer in the snapshot";
  const std::size_t first_deadline = timer_count + 8;
  ckpt::Reader at(std::string_view(snap).substr(first_deadline, 8));
  const std::int64_t deadline = at.i64();

  const auto patched = [&snap](std::size_t pos, const std::string& bytes) {
    std::string p = snap;
    p.replace(pos, bytes.size(), bytes);
    return p;
  };
  const auto i64_bytes = [](std::int64_t x) {
    ckpt::Writer v;
    v.i64(x);
    return std::string(v.data());
  };
  // View 0's first link entry: racks, owner, quorum, revision, link count,
  // then the link's u32 version and u8 verdict.
  const std::size_t first_verdict = first_view + 4 * 3 + 8 + 8 + 4;
  ASSERT_LE(static_cast<unsigned char>(snap[first_verdict]), 1);

  struct Case {
    const char* what;
    std::string payload;
    const char* expect;
  };
  const Case cases[] = {
      {"timer due far beyond the longest timeout",
       patched(first_deadline, i64_bytes(deadline + 100'000)),
       "outside the timer wheel"},
      {"timer that should already have fired",
       patched(first_deadline, i64_bytes(0)), "outside the timer wheel"},
      {"timer for a flow the workload does not have",
       patched(first_deadline + 8, i64_bytes(1'000'000)),
       "outside the workload"},
      {"link verdict byte of 2", patched(first_verdict, std::string(1, '\x02')),
       "verdict"},
  };
  for (const Case& c : cases) {
    const ckpt::LoadResult framed = ckpt::parse(ckpt::frame(c.payload));
    ASSERT_TRUE(framed.ok()) << c.what << ": " << framed.message;
    sim::SiriusSim target(cfg, w);
    std::string error;
    EXPECT_FALSE(target.restore_state(framed.payload, &error)) << c.what;
    EXPECT_NE(error.find(c.expect), std::string::npos)
        << c.what << ": " << error;
  }
  sim::SiriusSim ok(cfg, w);
  std::string error;
  EXPECT_TRUE(ok.restore_state(snap, &error)) << error;
}

// Cells on the wire and in the queues are checked against their flow's
// receive record, like timers: delivery indexes that record by flow and
// seq and the destination server's downlink. The cases patch the first
// in-flight cell and the first queued cell of a CRC-valid snapshot.
TEST(CkptSim, CorruptionMatrixRejectsCellsOutsideTheWorkload) {
  auto cfg = faulted_net();
  const auto w = make_wl(cfg, 0.5, 400);
  std::string snap;
  cfg.checkpoint_every = Time::us(125);
  cfg.checkpoint_sink = [&snap](std::int64_t, Time, const std::string& p) {
    if (snap.empty()) snap = p;
  };
  sim::SiriusSim(cfg, w).run();
  cfg.checkpoint_sink = nullptr;
  cfg.checkpoint_every = Time::zero();
  ASSERT_FALSE(snap.empty());

  // The ring: its bucket count, then per bucket a cell count and the cells,
  // each followed by the rack it lands at; the statistics come next.
  const std::string_view view(snap);
  const auto u64_at = [view](std::size_t pos) {
    ckpt::Reader r(view.substr(pos, 8));
    return r.u64();
  };
  const std::size_t wire = snap.find("WIRE");
  ASSERT_NE(wire, std::string::npos);
  std::size_t at = wire + 4 + 8;
  std::size_t first_cell = 0;
  for (std::uint64_t b = u64_at(wire + 4); b > 0; --b) {
    const std::uint64_t n = u64_at(at);
    if (n > 0 && first_cell == 0) first_cell = at + 8;
    at += 8 + n * (node::kCellBytes + 4);
  }
  ASSERT_EQ(snap.substr(at, 4), "STAT");
  ASSERT_NE(first_cell, 0u) << "no cell on the wire";

  const auto patched = [&snap](std::size_t pos, std::int64_t v, bool wide) {
    ckpt::Writer bytes;
    if (wide) {
      bytes.i64(v);
    } else {
      bytes.i32(static_cast<std::int32_t>(v));
    }
    std::string p = snap;
    p.replace(pos, bytes.data().size(), bytes.data());
    return p;
  };
  const auto i32_at = [view](std::size_t pos) {
    ckpt::Reader r(view.substr(pos, 4));
    return r.i32();
  };
  const auto rack = [&cfg](std::int32_t server) {
    return server / cfg.servers_per_rack;
  };
  // A queued cell: the first node-section window that reads as a cell of an
  // inter-rack flow injected before the snapshot. Cell fields: flow (i64),
  // seq, destination rack, destination server, payload, retries.
  const std::size_t nodes = snap.find("NODE");
  const std::size_t rx = snap.find("RXBF", nodes);
  ASSERT_NE(rx, std::string::npos);
  std::size_t queued = 0;
  for (std::size_t p = nodes + 4; queued == 0 && p + node::kCellBytes < rx;
       ++p) {
    const auto flow = static_cast<std::int64_t>(u64_at(p));
    if (flow < 0 || flow >= static_cast<std::int64_t>(w.flows.size())) {
      continue;
    }
    const workload::Flow& f = w.flows[static_cast<std::size_t>(flow)];
    const std::int32_t seq = i32_at(p + 8);
    const std::int32_t payload = i32_at(p + 20);
    if (f.arrival < Time::us(100) && rack(f.src_server) != rack(f.dst_server) &&
        seq >= 0 && seq < node::cells_for(f.size, cfg.slots.cell_size()) &&
        i32_at(p + 12) == rack(f.dst_server) &&
        i32_at(p + 16) == f.dst_server && payload > 0 &&
        payload <= cfg.slots.cell_size().in_bytes() && i32_at(p + 24) == 0) {
      queued = p;
    }
  }
  ASSERT_NE(queued, 0u) << "no queued cell";
  // An intra-rack flow injected before the snapshot has no receive record:
  // none of its cells crosses the core.
  const auto intra = std::find_if(
      w.flows.begin(), w.flows.end(), [&](const workload::Flow& f) {
        return f.arrival < Time::us(100) &&
               rack(f.src_server) == rack(f.dst_server);
      });
  ASSERT_NE(intra, w.flows.end());

  struct Case {
    std::string what;
    std::string payload;
    std::string error;
  };
  std::vector<Case> cases;
  // The destination rack stays in every patch, so a queued cell still
  // matches its queue and only the flow check can reject it.
  for (const auto& [where, cell] : {std::pair{"in-flight", first_cell},
                                    std::pair{"queued", queued}}) {
    const std::string error = std::string(where) + " cell outside the workload";
    const std::int32_t other_server = (i32_at(cell + 16) + 1) % cfg.servers();
    std::string intra_cell = patched(cell, intra->id, true);
    ckpt::Writer seq0;
    seq0.i32(0);
    intra_cell.replace(cell + 8, 4, seq0.data());
    ckpt::Writer server;
    server.i32(intra->dst_server);
    intra_cell.replace(cell + 16, 4, server.data());
    cases.push_back({std::string(where) + " flow the workload does not have",
                     patched(cell, 1'000'000'000, true), error});
    cases.push_back({std::string(where) + " seq past the flow's last cell",
                     patched(cell + 8, 1'000'000, false), error});
    cases.push_back({std::string(where) + " server other than the flow's",
                     patched(cell + 16, other_server, false), error});
    cases.push_back({std::string(where) + " intra-rack flow",
                     std::move(intra_cell), error});
  }
  // The last flow arrives after the snapshot; a cell of it that heads to
  // its server is wrong only in existing too early.
  const workload::Flow& last = w.flows.back();
  ASSERT_GT(last.arrival, Time::us(125));
  {
    std::string early = patched(first_cell, last.id, true);
    ckpt::Writer fields;
    fields.i32(0);
    fields.i32(rack(last.dst_server));
    fields.i32(last.dst_server);
    early.replace(first_cell + 8, 12, fields.data());
    cases.push_back({"in-flight flow not injected yet", std::move(early),
                     "in-flight cell outside the workload"});
  }
  for (const auto& c : cases) {
    const ckpt::LoadResult framed = ckpt::parse(ckpt::frame(c.payload));
    ASSERT_TRUE(framed.ok()) << c.what << ": " << framed.message;
    sim::SiriusSim target(cfg, w);
    std::string error;
    EXPECT_FALSE(target.restore_state(framed.payload, &error)) << c.what;
    EXPECT_NE(error.find(c.error), std::string::npos)
        << c.what << ": " << error;
  }
  sim::SiriusSim ok(cfg, w);
  std::string error;
  EXPECT_TRUE(ok.restore_state(snap, &error)) << error;
}

TEST(CkptDeterminism, ForkReseedDivergesAndReproduces) {
  auto cfg = faulted_net();
  const auto w = make_wl(cfg, 0.5, 400);

  std::vector<Snap> snaps;
  cfg.checkpoint_every = Time::us(50);
  cfg.checkpoint_sink = [&snaps](std::int64_t slot, Time at,
                                 const std::string& payload) {
    snaps.push_back({slot, at, payload});
  };
  sim::SiriusSim(cfg, w).run();
  ASSERT_FALSE(snaps.empty());
  const std::string& base = snaps.front().payload;

  auto fork_cfg = faulted_net();
  auto fork = [&](std::uint64_t salt) {
    sim::SiriusSim s(fork_cfg, w);
    std::string error;
    EXPECT_TRUE(s.restore_state(base, &error)) << error;
    s.reseed_streams(salt);
    const auto r = s.run();
    return r;
  };

  const auto f1 = fork(1);
  const auto f1_again = fork(1);
  const auto f2 = fork(2);

  // Same salt: the fork is itself deterministic.
  EXPECT_EQ(f1.cells_delivered, f1_again.cells_delivered);
  EXPECT_EQ(f1.slots_simulated, f1_again.slots_simulated);
  EXPECT_EQ(f1.goodput_normalized, f1_again.goodput_normalized);
  // Different salts explore different futures from the same state. The
  // delivered-cell ledger is workload-fixed, so compare the schedule- and
  // rng-sensitive outcomes.
  EXPECT_TRUE(f1.slots_simulated != f2.slots_simulated ||
              f1.fct.short_fct_p99_ms != f2.fct.short_fct_p99_ms ||
              f1.goodput_normalized != f2.goodput_normalized);
}

}  // namespace
}  // namespace sirius
