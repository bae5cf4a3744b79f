// Microbenchmarks (google-benchmark) for the hot paths of the library:
// AWGR routing, schedule lookups, laser-latency queries, RNG, workload
// generation and end-to-end simulator slot throughput.
//
// `micro_bench --summary [path]` skips google-benchmark and instead runs
// the end-to-end slot-throughput scenario once, writing a machine-readable
// `sirius.bench.v1` summary (simulated cells/sec, wall-ns per sim-slot,
// peak RSS over the pre-scenario baseline, plus a provenance block) to
// `path` (stdout when omitted). perf_bench pins the wider suite; the
// committed BENCH_<n>.json snapshots at the repo root come from there.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.hpp"
#include "common/atomic_file.hpp"
#include "common/rng.hpp"
#include "fec/reed_solomon.hpp"
#include "frame/cell_frame.hpp"
#include "optical/awgr.hpp"
#include "optical/dsdbr_laser.hpp"
#include "sched/schedule.hpp"
#include "sim/sirius_sim.hpp"
#include "workload/generator.hpp"

namespace {

using namespace sirius;

void BM_AwgrRoute(benchmark::State& state) {
  optical::Awgr awgr(100);
  std::int32_t in = 0;
  WavelengthId w = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(awgr.route(in, w));
    in = (in + 1) % 100;
    w = (w + 7) % 100;
  }
}
BENCHMARK(BM_AwgrRoute);

void BM_SchedulePeerTx(benchmark::State& state) {
  sched::CyclicSchedule sched(128, 12);
  NodeId n = 0;
  std::int64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.peer_tx(n, 3, t));
    n = (n + 1) % 128;
    ++t;
  }
}
BENCHMARK(BM_SchedulePeerTx);

void BM_DsdbrTuningLatency(benchmark::State& state) {
  optical::DsdbrLaser laser;
  WavelengthId from = 0, to = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(laser.tuning_latency(from, to));
    from = (from + 3) % 112;
    to = (to + 11) % 112;
  }
}
BENCHMARK(BM_DsdbrTuningLatency);

void BM_RngBelow(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.below(127));
  }
}
BENCHMARK(BM_RngBelow);

void BM_WorkloadGeneration(benchmark::State& state) {
  workload::GeneratorConfig g;
  g.servers = 512;
  g.server_rate = DataRate::gbps(50);
  g.load = 0.5;
  g.flow_count = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::generate(g));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WorkloadGeneration)->Arg(10'000);

void BM_FrameEncodeDecode(benchmark::State& state) {
  frame::CellCodec codec;
  frame::CellFrame f;
  f.flow = 99;
  f.payload.assign(static_cast<std::size_t>(codec.payload_capacity()), 0x3c);
  for (auto _ : state) {
    const auto wire = codec.encode(f);
    benchmark::DoNotOptimize(codec.decode(wire));
  }
  state.SetBytesProcessed(state.iterations() * 562);
}
BENCHMARK(BM_FrameEncodeDecode);

void BM_Crc32Cell(benchmark::State& state) {
  std::vector<std::uint8_t> data(562, 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(frame::CellCodec::crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * 562);
}
BENCHMARK(BM_Crc32Cell);

void BM_RsEncode(benchmark::State& state) {
  const auto rs = fec::ReedSolomon::kp4_like();
  std::vector<std::uint8_t> data(static_cast<std::size_t>(rs.k()), 0x42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.encode(data));
  }
  state.SetBytesProcessed(state.iterations() * rs.k());
}
BENCHMARK(BM_RsEncode);

void BM_RsDecodeWithErrors(benchmark::State& state) {
  const auto rs = fec::ReedSolomon::kp4_like();
  std::vector<std::uint8_t> data(static_cast<std::size_t>(rs.k()), 0x42);
  auto code = rs.encode(data);
  const auto errors = state.range(0);
  for (std::int64_t e = 0; e < errors; ++e) {
    code[static_cast<std::size_t>(e * 7)] ^= 0x81;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.decode(code));
  }
  state.SetBytesProcessed(state.iterations() * rs.k());
}
BENCHMARK(BM_RsDecodeWithErrors)->Arg(0)->Arg(4)->Arg(15);

void BM_SiriusSimSlots(benchmark::State& state) {
  // End-to-end simulator throughput: slots simulated per second for a
  // 32-rack network at 50 % load.
  sim::SiriusSimConfig cfg;
  cfg.racks = 32;
  cfg.servers_per_rack = 8;
  cfg.base_uplinks = 8;
  workload::GeneratorConfig g;
  g.servers = cfg.servers();
  g.server_rate = cfg.server_share();
  g.load = 0.5;
  g.flow_count = 2'000;
  g.max_flow_size = DataSize::megabytes(2);
  const auto w = workload::generate(g);
  std::int64_t slots = 0;
  for (auto _ : state) {
    sim::SiriusSim sim(cfg, w);
    const auto r = sim.run();
    slots += r.slots_simulated;
    benchmark::DoNotOptimize(r.cells_delivered);
  }
  state.SetItemsProcessed(slots);
}
BENCHMARK(BM_SiriusSimSlots)->Unit(benchmark::kMillisecond);

// ---- machine-readable summary mode -----------------------------------------

// The same 32-rack / 50 % load scenario as BM_SiriusSimSlots, timed with a
// monotonic clock across one full run (the sim itself is deterministic, so
// one run measures the steady state; a short warm-up run pre-faults the
// allocator and page cache).
int run_summary(const char* path) {
  // Baseline RSS before any scenario state is built: the reported peak is
  // the delta over this, so static-init and harness footprint (notably
  // google-benchmark's registry) stop inflating the scenario number.
  const std::int64_t baseline_rss_kb = bench::peak_rss_kb();
  sim::SiriusSimConfig cfg;
  cfg.racks = 32;
  cfg.servers_per_rack = 8;
  cfg.base_uplinks = 8;
  workload::GeneratorConfig g;
  g.servers = cfg.servers();
  g.server_rate = cfg.server_share();
  g.load = 0.5;
  g.flow_count = 2'000;
  g.max_flow_size = DataSize::megabytes(2);
  const auto w = workload::generate(g);

  {
    sim::SiriusSim warmup(cfg, w);
    (void)warmup.run();
  }

  const auto t0 = std::chrono::steady_clock::now();
  sim::SiriusSim sim(cfg, w);
  const auto r = sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  if (wall_ns <= 0.0 || r.slots_simulated <= 0) {
    std::fprintf(stderr, "micro_bench: degenerate run (%.0f ns, %lld slots)\n",
                 wall_ns, static_cast<long long>(r.slots_simulated));
    return 1;
  }

  const std::int64_t peak_rss_kb = bench::peak_rss_kb();

  // Checkpoint cost: capture one mid-run `sirius.ckpt.v1` payload, then
  // time the full write path (serialize + frame + fsync + atomic rename)
  // and the restore path against a live mid-run state.
  std::string snap;
  {
    sim::SiriusSimConfig ck_cfg = cfg;
    ck_cfg.checkpoint_every = Time::us(500);
    ck_cfg.checkpoint_sink = [&snap](std::int64_t, Time,
                                     const std::string& payload) {
      if (snap.empty()) snap = payload;
    };
    sim::SiriusSim capture(ck_cfg, w);
    (void)capture.run();
  }
  double ckpt_write_ns = 0.0;
  double ckpt_restore_ns = 0.0;
  std::string err = "the run took no checkpoint";
  sim::SiriusSim probe(cfg, w);
  if (snap.empty() || !probe.restore_state(snap, &err) ||
      !bench::time_checkpoint(probe, snap, "sirius_micro_bench", 10,
                              &ckpt_write_ns, &ckpt_restore_ns, &err)) {
    std::fprintf(stderr, "micro_bench: checkpoint round trip failed: %s\n",
                 err.c_str());
    return 1;
  }

  // Same `sirius.bench.v1` shape as perf_bench: schema + provenance at the
  // top level, one entry in `configs` (this binary pins a single scenario).
  telemetry::JsonObject entry;
  entry.add("name", "sim_slots_32rack_load50");
  entry.add_int("racks", cfg.racks);
  entry.add_int("flows", g.flow_count);
  entry.add_num("load", g.load);
  entry.add_int("slots_simulated", r.slots_simulated);
  entry.add_int("cells_delivered", r.cells_delivered);
  entry.add_num("wall_ns", wall_ns);
  entry.add_num("cells_per_sec",
                static_cast<double>(r.cells_delivered) * 1e9 / wall_ns);
  entry.add_num("wall_ns_per_slot",
                wall_ns / static_cast<double>(r.slots_simulated));
  entry.add_int("ckpt_bytes", static_cast<std::int64_t>(snap.size()));
  entry.add_num("ckpt_write_ns", ckpt_write_ns);
  entry.add_num("ckpt_restore_ns", ckpt_restore_ns);
  entry.add_int("baseline_rss_kb", baseline_rss_kb);
  entry.add_int("peak_rss_delta_kb", peak_rss_kb > baseline_rss_kb
                                         ? peak_rss_kb - baseline_rss_kb
                                         : 0);

  telemetry::JsonObject doc;
  doc.add("schema", bench::kBenchSchema);
  doc.add_raw("provenance", bench::provenance_json().str());
  doc.add_raw("configs", telemetry::json_array({entry.str()}));
  const std::string body = doc.str() + "\n";

  if (path == nullptr) {
    std::fputs(body.c_str(), stdout);
    return 0;
  }
  std::string werr;
  if (!write_file_atomic(path, body, &werr)) {
    std::fprintf(stderr, "micro_bench: cannot write %s: %s\n", path,
                 werr.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--summary") == 0) {
      const char* path =
          (i + 1 < argc && argv[i + 1][0] != '-') ? argv[i + 1] : nullptr;
      return run_summary(path);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
