// Golden digests: the simulator's observable output, pinned bit for bit.
//
// Each entry runs a small network (16 or 32 racks x 4 servers, a few
// hundred flows) through one branch of the slot kernel — Valiant
// request/grant at three queue bounds, the ideal spraying mode, direct-only routing, a static
// rack failure, and a mid-run rack fault with a grey-link window — and pins
// three FNV-1a digests:
//   * `results`: every SiriusSimResult field but `work`, and FailoverStats;
//   * `flows`:   per_flow_completion, flow by flow;
//   * `state`:   every checkpoint_state() payload, taken every 20 simulated
//                us and once after the run, so the queues' serialized bytes
//                are pinned while they hold cells, not only once drained.
// A kernel rewrite must reproduce all three. Each entry also pins the
// kernel's exact work and footprint (sim::WorkCounters, kept out of the
// digests): the run is deterministic, so a change in pairs or flows visited
// is a change in the work done per slot, a change in queue slots one in
// the memory the node queues hold, and a change in view rows merged one in
// the §4.5 membership merges' work, visible here without any timing noise.
// When `flows` moves, the test names the first divergent flow from the
// per-flow completion times kept in tests/golden/<entry>.txt. Every run also
// writes its actual per-flow file to <build>/tests/golden_actual/, which is
// what re-blessing copies back (together with the new digests and a
// CHANGES.md line saying why the simulator's results moved).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "sim/sirius_sim.hpp"
#include "workload/generator.hpp"

namespace sirius {
namespace {

namespace fs = std::filesystem;

/// FNV-1a over 64-bit words, byte by byte.
class Fnv {
 public:
  void mix_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  void mix_i64(std::int64_t v) { mix_u64(static_cast<std::uint64_t>(v)); }
  void mix_f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    mix_u64(bits);
  }
  void mix_time(Time t) { mix_i64(t.picoseconds()); }
  void mix_bytes(const std::string& s) {
    mix_u64(s.size());
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001B3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

std::uint64_t results_digest(const sim::SiriusSimResult& r) {
  Fnv h;
  h.mix_i64(r.fct.completed_flows);
  h.mix_i64(r.fct.short_flows);
  h.mix_f64(r.fct.short_fct_p99_ms);
  h.mix_f64(r.fct.short_fct_p50_ms);
  h.mix_f64(r.fct.short_fct_mean_ms);
  h.mix_f64(r.fct.all_fct_p99_ms);
  h.mix_f64(r.fct.all_fct_mean_ms);
  h.mix_f64(r.goodput_normalized);
  h.mix_f64(r.worst_node_queue_peak_kb);
  h.mix_f64(r.worst_reorder_peak_kb);
  h.mix_i64(r.slots_simulated);
  h.mix_i64(r.cells_delivered);
  h.mix_i64(r.incomplete_flows);
  h.mix_i64(r.rejected_flows);
  h.mix_time(r.sim_end);
  h.mix_i64(r.requests_sent);
  h.mix_i64(r.grants_issued);
  h.mix_i64(r.grants_denied_q);
  h.mix_i64(r.grants_released);
  h.mix_i64(r.slots_tx_relay);
  h.mix_i64(r.slots_tx_first);
  const sim::FailoverStats& f = r.failover;
  h.mix_i64(f.cells_dropped);
  h.mix_i64(f.cells_retransmitted);
  h.mix_i64(f.retx_abandoned);
  h.mix_i64(f.duplicates_discarded);
  h.mix_i64(f.flows_aborted);
  h.mix_i64(f.schedule_swaps);
  h.mix_i64(f.detection_rounds);
  h.mix_i64(f.dissemination_rounds);
  h.mix_time(f.detection_latency);
  h.mix_time(f.dissemination_latency);
  h.mix_f64(f.recovery.dip_floor_frac);
  h.mix_time(f.recovery.dip_width);
  h.mix_time(f.recovery.time_to_recover);
  h.mix_f64(f.recovery.baseline);
  h.mix_u64(f.recovery.recovered ? 1 : 0);
  h.mix_u64(r.recovery_curve.size());
  for (const stats::RecoveryBin& b : r.recovery_curve) {
    h.mix_time(b.start);
    h.mix_f64(b.goodput_normalized);
  }
  return h.value();
}

std::uint64_t flows_digest(const std::vector<Time>& completions) {
  Fnv h;
  h.mix_u64(completions.size());
  for (const Time t : completions) h.mix_time(t);
  return h.value();
}

struct Golden {
  const char* name;
  std::function<void(sim::SiriusSimConfig*)> tweak;
  double load;
  std::int64_t flows;
  std::uint64_t results;
  std::uint64_t flows_fnv;
  std::uint64_t state;
  std::int64_t pairs_visited;
  std::int64_t flows_visited;
  std::int64_t queue_slots;
  std::int64_t view_rows_merged;
};

sim::SiriusSimConfig base_config() {
  sim::SiriusSimConfig cfg;
  cfg.racks = 16;
  cfg.servers_per_rack = 4;
  cfg.base_uplinks = 4;  // 6 uplinks: 15 peers leave 3 idle padding slots
  cfg.seed = 11;
  cfg.audit_period_rounds = 4;
  return cfg;
}

workload::Workload make_workload(const sim::SiriusSimConfig& cfg, double load,
                                 std::int64_t flows) {
  workload::GeneratorConfig g;
  g.servers = cfg.servers();
  g.server_rate = cfg.server_share();
  g.load = load;
  g.flow_count = flows;
  g.max_flow_size = DataSize::megabytes(1);
  g.seed = 29;
  return workload::generate(g);
}

// Re-pinning any digest is a behaviour change: it needs a CHANGES.md line
// that says why the simulator's results moved. A change to the kernel's work
// alone re-pins only the four work columns, also with a CHANGES.md line,
// and leaves every digest as it was.
const std::vector<Golden>& goldens() {
  static const std::vector<Golden> kGoldens{
      // name, config tweak, load, flows, the results/flows/state pins, then
      // pairs visited, flows visited, queue slots and view rows merged.
      {"valiant_q2", [](sim::SiriusSimConfig* c) { c->queue_limit = 2; }, 0.6,
       400, 0xd0d63f31aade39f0, 0x57355745703dddcc, 0x7099e48b1fa81e98,
       129495, 36160, 1077, 0},
      {"valiant_q16", [](sim::SiriusSimConfig* c) { c->queue_limit = 16; },
       0.6, 400, 0x9c83a2eac1a058ff, 0xd328432fb0bc63a5, 0x0ea8450fc1ccf958,
       129372, 33611, 1134, 0},
      {"ideal",
       [](sim::SiriusSimConfig* c) { c->routing = sim::RoutingMode::kIdeal; },
       0.6, 400, 0x4c58a7a841b09fe4, 0x0af0acfa5d76dbc2, 0x1d01159646b75db1,
       289120, 0, 2551, 0},
      {"direct",
       [](sim::SiriusSimConfig* c) { c->routing = sim::RoutingMode::kDirect; },
       0.3, 300, 0x41f4575757dc0461, 0x1cee5e5476e7c333, 0x84c83688634be468,
       692320, 0, 385, 0},
      {"static_failed_rack",
       [](sim::SiriusSimConfig* c) { c->faults.fail_rack(5, Time::zero()); },
       0.5, 400, 0xaeaaa3fc6529c5c1, 0x334ec8808f652b72, 0xc541b16afd479574,
       120149, 28565, 983, 0},
      {"midrun_fault_grey",
       [](sim::SiriusSimConfig* c) {
         c->faults.fail_rack(3, Time::us(60), Time::us(220));
         c->faults.grey_link(2, 5, 0.3, Time::us(40), Time::us(160));
         c->record_recovery_curve = true;
       },
       0.5, 400, 0x7f8a20fe691c7c5f, 0x328580a56d45f837, 0x4de11c4b7701e2a8,
       250870, 23280, 1005, 479},
      {"valiant_q4_32rack",
       [](sim::SiriusSimConfig* c) {
         c->racks = 32;
         c->base_uplinks = 8;  // 12 uplinks over 31 peers: 3 slots a round
       },
       0.8, 600, 0xdefd986508e9d95f, 0x983ba25546786b6c, 0xb625dbe937614ae2,
       216924, 37978, 2964, 0},
  };
  return kGoldens;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// One "<flow> <completion ps>" line per flow.
std::string flows_text(const std::vector<Time>& completions) {
  std::ostringstream os;
  for (std::size_t i = 0; i < completions.size(); ++i) {
    os << i << ' ' << completions[i].picoseconds() << '\n';
  }
  return os.str();
}

/// Names the first flow whose completion differs from the pinned file.
std::string first_divergent_flow(const std::string& name,
                                 const std::vector<Time>& completions) {
  std::ifstream in(fs::path(SIRIUS_GOLDEN_DIR) / (name + ".txt"));
  if (!in) return "no pinned per-flow file for " + name;
  std::size_t flow = 0;
  std::int64_t ps = 0;
  std::size_t n = 0;
  while (in >> flow >> ps) {
    if (flow >= completions.size()) {
      return "pinned file lists flow " + std::to_string(flow) +
             " beyond the run's " + std::to_string(completions.size());
    }
    const std::int64_t got = completions[flow].picoseconds();
    if (got != ps) {
      return "first divergent flow " + std::to_string(flow) +
             ": completion " + std::to_string(got) + " ps, pinned " +
             std::to_string(ps) + " ps";
    }
    ++n;
  }
  if (n != completions.size()) {
    return "pinned file has " + std::to_string(n) + " flows, run has " +
           std::to_string(completions.size());
  }
  return "per-flow completions match the pinned file";
}

class GoldenTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenTest, MatchesPinnedDigests) {
  const Golden& g = goldens()[GetParam()];
  sim::SiriusSimConfig cfg = base_config();
  g.tweak(&cfg);
  Fnv sh;
  cfg.checkpoint_every = Time::us(20);
  cfg.checkpoint_sink = [&sh](std::int64_t, Time, const std::string& p) {
    sh.mix_bytes(p);
  };
  const workload::Workload w = make_workload(cfg, g.load, g.flows);
  sim::SiriusSim s(cfg, w);
  const sim::SiriusSimResult r = s.run();
  sh.mix_bytes(s.checkpoint_state());

  const std::uint64_t results = results_digest(r);
  const std::uint64_t flows = flows_digest(r.per_flow_completion);
  const std::uint64_t state_fnv = sh.value();

  const fs::path out_dir(SIRIUS_GOLDEN_OUT);
  fs::create_directories(out_dir);
  std::ofstream(out_dir / (std::string(g.name) + ".txt"))
      << flows_text(r.per_flow_completion);

  // A golden run must be a real one: traffic moved and, without faults,
  // every flow finished.
  EXPECT_GT(r.cells_delivered, 0);
  if (!cfg.faults.dynamic()) {
    EXPECT_EQ(r.incomplete_flows, 0);
  }

  EXPECT_EQ(hex(flows), hex(g.flows_fnv))
      << g.name << ": " << first_divergent_flow(g.name, r.per_flow_completion);
  EXPECT_EQ(hex(results), hex(g.results))
      << g.name << ": a SiriusSimResult or FailoverStats field moved";
  EXPECT_EQ(hex(state_fnv), hex(g.state))
      << g.name << ": a checkpoint payload moved";

  EXPECT_EQ(r.work.pairs_visited, g.pairs_visited)
      << g.name << ": the transmit kernel visits a different number of pairs";
  EXPECT_EQ(r.work.flows_visited, g.flows_visited)
      << g.name << ": the request builder scans a different number of flows";
  EXPECT_EQ(r.work.queue_slots, g.queue_slots)
      << g.name << ": the node queues hold a different number of slots";
  EXPECT_EQ(r.work.view_rows_merged, g.view_rows_merged)
      << g.name << ": the view merges walk a different number of rows";
  // Where the kernel skips idle pairs, each pair it visits sends one cell.
  if (cfg.routing == sim::RoutingMode::kValiant && !cfg.faults.dynamic()) {
    EXPECT_EQ(r.work.pairs_visited, r.slots_tx_first + r.slots_tx_relay)
        << g.name << ": a visited pair sent nothing";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernel, GoldenTest, ::testing::Range<std::size_t>(0, 7),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(goldens()[info.param].name);
    });

}  // namespace
}  // namespace sirius
