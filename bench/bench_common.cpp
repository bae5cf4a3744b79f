#include "bench_common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "common/rng.hpp"
#include "telemetry/manifest.hpp"

#ifndef SIRIUS_GIT_SHA
#define SIRIUS_GIT_SHA "unknown"
#endif
#ifndef SIRIUS_BUILD_TYPE
#define SIRIUS_BUILD_TYPE "unknown"
#endif

namespace sirius::bench {

telemetry::JsonObject provenance_json() {
  telemetry::JsonObject p;
  p.add("git_sha", SIRIUS_GIT_SHA);
  p.add("build_type", SIRIUS_BUILD_TYPE);
  telemetry::Manifest::add_build_info(p);
  return p;
}

std::int64_t peak_rss_kb() {
  rusage u{};
  if (getrusage(RUSAGE_SELF, &u) != 0) return 0;
  return static_cast<std::int64_t>(u.ru_maxrss);  // Linux: KiB.
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t calibration_ns() {
  // Fixed, deterministic single-core workload (~tens of ms on 2020-era
  // hardware): CRC-32 over an RNG-filled buffer, repeated. The absolute
  // value is meaningless; the *ratio* between two machines' results is
  // the speed factor the regression gate uses to rescale its baseline.
  constexpr std::size_t kBufWords = 1 << 12;
  constexpr int kSweeps = 64;
  Rng rng(0xCA11B8A7Eull);
  std::vector<std::uint64_t> buf(kBufWords);
  for (auto& w : buf) w = rng();

  const std::uint64_t t0 = now_ns();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    for (std::uint64_t w : buf) {
      w ^= crc;
      for (int bit = 0; bit < 64; ++bit) {
        const std::uint32_t mix = static_cast<std::uint32_t>(w >> bit) & 1u;
        crc = (crc >> 1) ^ (0xEDB88320u * ((crc ^ mix) & 1u));
      }
    }
  }
  const std::uint64_t elapsed = now_ns() - t0;
  // Fold the checksum into a side effect the optimiser cannot drop.
  volatile std::uint32_t sink = crc;
  static_cast<void>(sink);
  return elapsed == 0 ? 1 : elapsed;
}

void spin_ns(std::uint64_t ns) {
  const std::uint64_t until = now_ns() + ns;
  while (now_ns() < until) {
    // busy wait
  }
}

bool time_checkpoint(sim::SiriusSim& probe, const std::string& snap,
                     int iters, double* write_ns, double* restore_ns,
                     std::string* error) {
  const std::filesystem::path file =
      std::filesystem::temp_directory_path() /
      ("sirius_perf_bench." + std::to_string(::getpid()) + ".ckpt");
  bool ok = true;
  const std::uint64_t w0 = now_ns();
  for (int i = 0; i < iters && ok; ++i) {
    ok = ckpt::save(file, probe.checkpoint_state(), error);
  }
  const std::uint64_t w1 = now_ns();
  for (int i = 0; i < iters && ok; ++i) {
    ok = probe.restore_state(snap, error);
  }
  const std::uint64_t r1 = now_ns();
  std::error_code ec;
  std::filesystem::remove(file, ec);
  if (!ok) return false;
  *write_ns = static_cast<double>(w1 - w0) / iters;
  *restore_ns = static_cast<double>(r1 - w1) / iters;
  return true;
}

}  // namespace sirius::bench
