// Microbenchmarks (google-benchmark) for the hot paths of the library:
// AWGR routing, schedule lookups, laser-latency queries, RNG, workload
// generation, framing and FEC. End-to-end simulator throughput and the
// machine-readable BENCH_<n>.json snapshots come from benchmark/run.py.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "fec/reed_solomon.hpp"
#include "frame/cell_frame.hpp"
#include "optical/awgr.hpp"
#include "optical/dsdbr_laser.hpp"
#include "sched/schedule.hpp"
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
    benchmark::DoNotOptimize(crc32(data));
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

}  // namespace

BENCHMARK_MAIN();
