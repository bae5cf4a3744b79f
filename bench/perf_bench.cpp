// perf_bench: the pinned perf-observability suite (`sirius.bench.v1`).
//
// Runs four canonical end-to-end scenarios — a 128-rack load-sweep point,
// a fault-storm run with mid-run failover, a telemetry-on vs telemetry-off
// pair (which also asserts the bit-identical determinism contract with the
// hierarchical profiler live), and a checkpoint-cadence run — and
// emits one schema'd JSON document: per-config cells/sec, wall-ns/slot,
// peak RSS over a pre-scenario baseline, checkpoint costs, plus a
// provenance block (git sha, compiler, flags, build type) and a
// machine-speed calibration figure the CI regression gate uses to rescale
// the committed baseline (BENCH_<n>.json at the repo root).
//
// Flags:
//   --quick            run only the quick_* configs (CI gate cadence)
//   --out <path>       write the JSON document there (default stdout)
//   --flame <path>     also write the hierarchical profile of the
//                      telemetry-on run as flame-style JSON
//   --only <substr>    run only configs whose name contains <substr>
//   --inject-spin-ns N busy-spin N ns per simulated slot inside the timed
//                      region — a deliberate slowdown used by the
//                      regression gate's self-test, never on by default
//
// Timing methodology: one warm-up run (pre-faults allocator and page
// cache), then kRepeats measured runs, reporting the minimum (the run
// least perturbed by the host). RSS is reported as the delta over the RSS
// high-water mark captured just before the scenario; because ru_maxrss is
// a process-wide high-water mark, configs are ordered largest-first and
// later, smaller configs may legitimately report a delta of zero.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/atomic_file.hpp"
#include "ctrl/fault_plan.hpp"
#include "sim/sirius_sim.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/json.hpp"
#include "workload/generator.hpp"

namespace {

using namespace sirius;

struct Options {
  bool quick = false;
  std::string out;
  std::string flame;
  std::string only;
  std::uint64_t inject_spin_ns = 0;
};

/// Scale knobs shared by every scenario; quick variants shrink the network
/// and the flow count so the CI gate finishes in seconds.
struct Scale {
  const char* prefix;  ///< "" (full) or "quick_"
  std::int32_t load_sweep_racks;
  std::int64_t load_sweep_flows;
  std::int32_t other_racks;
  std::int64_t other_flows;
};

constexpr Scale kFull{"", 128, 4'000, 32, 2'000};
constexpr Scale kQuick{"quick_", 16, 1'000, 8, 600};

constexpr int kRepeats = 2;

sim::SiriusSimConfig base_config(std::int32_t racks) {
  sim::SiriusSimConfig cfg;
  cfg.racks = racks;
  cfg.servers_per_rack = 8;
  cfg.base_uplinks = 8;
  return cfg;
}

workload::Workload make_workload(const sim::SiriusSimConfig& cfg,
                                 double load, std::int64_t flows) {
  workload::GeneratorConfig g;
  g.servers = cfg.servers();
  g.server_rate = cfg.server_share();
  g.load = load;
  g.flow_count = flows;
  g.max_flow_size = DataSize::megabytes(2);
  return workload::generate(g);
}

struct Measured {
  std::uint64_t wall_ns = 0;  ///< min over kRepeats
  sim::SiriusSimResult result;
};

/// Warm-up + best-of-kRepeats around `run`, which builds a fresh sim and
/// returns its result. The spin injection happens inside the timed window,
/// scaled by slots simulated, so it moves wall_ns_per_slot by ~spin_ns.
template <typename RunFn>
Measured best_of(const Options& opt, RunFn&& run) {
  (void)run();  // warm-up, untimed
  Measured m;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const std::uint64_t t0 = bench::now_ns();
    sim::SiriusSimResult r = run();
    if (opt.inject_spin_ns > 0 && r.slots_simulated > 0) {
      bench::spin_ns(opt.inject_spin_ns *
                     static_cast<std::uint64_t>(r.slots_simulated));
    }
    const std::uint64_t wall = bench::now_ns() - t0;
    if (rep == 0 || wall < m.wall_ns) {
      m.wall_ns = wall;
      m.result = std::move(r);
    }
  }
  return m;
}

/// Shared result fields every config entry carries; scenario extras are
/// appended by the caller before str().
telemetry::JsonObject config_json(const std::string& name,
                                  const sim::SiriusSimConfig& cfg,
                                  std::int64_t flows, double load,
                                  const Measured& m,
                                  std::int64_t rss_before_kb) {
  telemetry::JsonObject o;
  o.add("name", name);
  o.add_int("racks", cfg.racks);
  o.add_int("flows", flows);
  o.add_num("load", load);
  o.add_int("slots_simulated", m.result.slots_simulated);
  o.add_int("cells_delivered", m.result.cells_delivered);
  o.add_int("wall_ns", static_cast<std::int64_t>(m.wall_ns));
  const double wall = static_cast<double>(m.wall_ns);
  o.add_num("cells_per_sec",
            wall > 0.0
                ? static_cast<double>(m.result.cells_delivered) * 1e9 / wall
                : 0.0);
  o.add_num("wall_ns_per_slot",
            m.result.slots_simulated > 0
                ? wall / static_cast<double>(m.result.slots_simulated)
                : 0.0);
  o.add_int("baseline_rss_kb", rss_before_kb);
  const std::int64_t after = bench::peak_rss_kb();
  o.add_int("peak_rss_delta_kb",
            after > rss_before_kb ? after - rss_before_kb : 0);
  return o;
}

bool wants(const Options& opt, const std::string& name) {
  return opt.only.empty() || name.find(opt.only) != std::string::npos;
}

// ---- scenarios -------------------------------------------------------------

/// One point of the §7 load sweep at full scale: the largest network the
/// suite pins, so it runs first and owns the RSS high-water mark.
void scenario_load_sweep(const Options& opt, const Scale& s,
                         std::vector<std::string>* out) {
  const std::string name =
      std::string(s.prefix) + "load_sweep_" +
      std::to_string(s.load_sweep_racks) + "rack";
  if (!wants(opt, name)) return;
  const auto cfg = base_config(s.load_sweep_racks);
  const auto w = make_workload(cfg, 0.6, s.load_sweep_flows);
  const std::int64_t rss0 = bench::peak_rss_kb();
  const Measured m =
      best_of(opt, [&] { return sim::SiriusSim(cfg, w).run(); });
  auto o = config_json(name, cfg, s.load_sweep_flows, 0.6, m, rss0);
  o.add_int("incomplete_flows", m.result.incomplete_flows);
  out->push_back(o.str());
}

/// §4.5 fault storm: a rack failure with recovery plus a grey link, with
/// the goodput-vs-time recovery curve recorded — the most control-plane-
/// heavy path the sim has.
void scenario_fault_storm(const Options& opt, const Scale& s,
                          std::vector<std::string>* out) {
  const std::string name = std::string(s.prefix) + "fault_storm_" +
                           std::to_string(s.other_racks) + "rack";
  if (!wants(opt, name)) return;
  auto cfg = base_config(s.other_racks);
  cfg.faults.fail_rack(2, Time::us(200), Time::us(900));
  cfg.faults.grey_link(0, 1, 0.2, Time::us(100), Time::us(700));
  cfg.record_recovery_curve = true;
  const auto w = make_workload(cfg, 0.5, s.other_flows);
  const std::int64_t rss0 = bench::peak_rss_kb();
  const Measured m =
      best_of(opt, [&] { return sim::SiriusSim(cfg, w).run(); });
  auto o = config_json(name, cfg, s.other_flows, 0.5, m, rss0);
  o.add_int("rejected_flows", m.result.rejected_flows);
  o.add_int("recovery_curve_bins",
            static_cast<std::int64_t>(m.result.recovery_curve.size()));
  out->push_back(o.str());
}

/// Telemetry-off vs telemetry-on pair. The "on" run attaches a hub with
/// the hierarchical profiler live, then asserts the determinism contract:
/// results bit-identical to the bare run. Emits two config entries plus
/// the measured overhead, and (with --flame) the flame-style attribution
/// JSON of the instrumented run.
bool scenario_telemetry_pair(const Options& opt, const Scale& s,
                             std::vector<std::string>* out) {
  const std::string rack_tag = std::to_string(s.other_racks) + "rack";
  const std::string off_name =
      std::string(s.prefix) + "telemetry_off_" + rack_tag;
  const std::string on_name =
      std::string(s.prefix) + "telemetry_on_" + rack_tag;
  if (!wants(opt, off_name) && !wants(opt, on_name)) return true;
  const auto cfg = base_config(s.other_racks);
  const auto w = make_workload(cfg, 0.5, s.other_flows);

  const std::int64_t rss_off = bench::peak_rss_kb();
  const Measured off =
      best_of(opt, [&] { return sim::SiriusSim(cfg, w).run(); });

  telemetry::TelemetryConfig tcfg;
  tcfg.profile = true;
  // The flame export comes from the full-scale instrumented run (or the
  // quick one under --quick, where the full pair never runs).
  const bool flame_here = !opt.flame.empty() &&
                          (s.prefix[0] == '\0' || opt.quick);
  std::string flame_json;
  const std::int64_t rss_on = bench::peak_rss_kb();
  const Measured on = best_of(opt, [&] {
    telemetry::Hub hub(tcfg);
    auto run_cfg = cfg;
    run_cfg.telemetry = &hub;
    sim::SiriusSim sim(run_cfg, w);
    auto r = sim.run();
    if (flame_here) flame_json = hub.profiler().flame_json();
    return r;
  });

  // Determinism contract (see telemetry/hub.hpp): the hub is write-only
  // from the sim's point of view, so the instrumented run must be
  // bit-identical to the bare run.
  const bool identical =
      on.result.slots_simulated == off.result.slots_simulated &&
      on.result.cells_delivered == off.result.cells_delivered &&
      on.result.incomplete_flows == off.result.incomplete_flows &&
      on.result.requests_sent == off.result.requests_sent &&
      on.result.grants_issued == off.result.grants_issued;
  if (!identical) {
    std::fprintf(stderr,
                 "perf_bench: DETERMINISM VIOLATION in %s: instrumented run "
                 "diverged from bare run\n",
                 on_name.c_str());
  }

  {
    auto o = config_json(off_name, cfg, s.other_flows, 0.5, off, rss_off);
    out->push_back(o.str());
  }
  {
    auto o = config_json(on_name, cfg, s.other_flows, 0.5, on, rss_on);
    const double off_ns = static_cast<double>(off.wall_ns);
    o.add_num("telemetry_overhead_pct",
              off_ns > 0.0
                  ? (static_cast<double>(on.wall_ns) / off_ns - 1.0) * 100.0
                  : 0.0);
    o.add_bool("bit_identical", identical);
    out->push_back(o.str());
  }

  if (flame_here && !flame_json.empty()) {
    std::string err;
    if (!write_file_atomic(opt.flame, flame_json + "\n", &err)) {
      std::fprintf(stderr, "perf_bench: cannot write %s: %s\n",
                   opt.flame.c_str(), err.c_str());
      return false;
    }
  }
  return identical;
}

/// Checkpoint cadence run: serialization cost in-loop (sirius.ckpt.v1
/// payloads every 500 simulated us) plus the out-of-loop write (frame +
/// fsync + atomic rename) and restore costs against a mid-run state.
/// Returns false, after reporting why, when a checkpoint cannot be saved or
/// restored: a timing of a failed round trip would be meaningless.
bool scenario_checkpoint(const Options& opt, const Scale& s,
                         std::vector<std::string>* out) {
  const std::string name = std::string(s.prefix) + "checkpoint_500us_" +
                           std::to_string(s.other_racks) + "rack";
  if (!wants(opt, name)) return true;
  auto cfg = base_config(s.other_racks);
  cfg.checkpoint_every = Time::us(500);
  const auto w = make_workload(cfg, 0.5, s.other_flows);

  std::int64_t ckpt_count = 0;
  std::string snap;
  cfg.checkpoint_sink = [&ckpt_count, &snap](std::int64_t, Time,
                                             const std::string& payload) {
    ++ckpt_count;
    if (snap.empty()) snap = payload;
  };

  const std::int64_t rss0 = bench::peak_rss_kb();
  const Measured m = best_of(opt, [&] {
    ckpt_count = 0;
    return sim::SiriusSim(cfg, w).run();
  });
  auto o = config_json(name, cfg, s.other_flows, 0.5, m, rss0);
  o.add_int("ckpt_count", ckpt_count);
  o.add_int("ckpt_bytes", static_cast<std::int64_t>(snap.size()));

  double write_ns = 0.0;
  double restore_ns = 0.0;
  std::string err = "the run took no checkpoint";
  sim::SiriusSim probe(base_config(s.other_racks), w);
  if (snap.empty() || !probe.restore_state(snap, &err) ||
      !bench::time_checkpoint(probe, snap, 10, &write_ns, &restore_ns,
                              &err)) {
    std::fprintf(stderr, "perf_bench: %s: checkpoint round trip failed: %s\n",
                 name.c_str(), err.c_str());
    return false;
  }
  o.add_num("ckpt_write_ns", write_ns);
  o.add_num("ckpt_restore_ns", restore_ns);
  out->push_back(o.str());
  return true;
}

int run_suite(const Options& opt) {
  std::vector<std::string> configs;
  bool ok = true;
  // Largest network first so the RSS high-water deltas attribute to it.
  for (const Scale* s : opt.quick ? std::vector<const Scale*>{&kQuick}
                                  : std::vector<const Scale*>{&kFull,
                                                              &kQuick}) {
    scenario_load_sweep(opt, *s, &configs);
    scenario_fault_storm(opt, *s, &configs);
    ok = scenario_telemetry_pair(opt, *s, &configs) && ok;
    ok = scenario_checkpoint(opt, *s, &configs) && ok;
  }

  telemetry::JsonObject doc;
  doc.add("schema", bench::kBenchSchema);
  doc.add_bool("quick", opt.quick);
  doc.add_int("calibration_ns",
              static_cast<std::int64_t>(bench::calibration_ns()));
  doc.add_raw("provenance", bench::provenance_json().str());
  doc.add_raw("configs", telemetry::json_array(configs));
  const std::string body = doc.str() + "\n";

  if (opt.out.empty()) {
    std::fputs(body.c_str(), stdout);
  } else {
    std::string err;
    if (!write_file_atomic(opt.out, body, &err)) {
      std::fprintf(stderr, "perf_bench: cannot write %s: %s\n",
                   opt.out.c_str(), err.c_str());
      return 1;
    }
  }
  return ok ? 0 : 2;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--quick] [--out <path>] [--flame <path>] "
               "[--only <substr>] [--inject-spin-ns <n>]\n",
               argv0);
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (std::strcmp(a, "--quick") == 0) {
      opt.quick = true;
    } else if (std::strcmp(a, "--out") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      opt.out = v;
    } else if (std::strcmp(a, "--flame") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      opt.flame = v;
    } else if (std::strcmp(a, "--only") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      opt.only = v;
    } else if (std::strcmp(a, "--inject-spin-ns") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      opt.inject_spin_ns =
          static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
    } else {
      return usage(argv[0]);
    }
  }
  return run_suite(opt);
}
