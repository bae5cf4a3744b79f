// The repository benchmark harness: runs one named §7 workload of the Sirius
// slot simulator, verifies every output, and prints the metrics by name with
// their units, ending with one JSON line. run.py builds and invokes it; the
// workloads, metrics and verification rules are documented in README.md.
//
//   sirius_benchmark --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --scratch <dir>
//
// --trace 0 measures the end-to-end metrics with telemetry off; --trace 1
// alternates untraced and profiled runs and reports the per-layer metrics.
// Layers are measured from outside src/: by timing calls into public
// functions, by reading SiriusSimResult counts, and by reading the
// telemetry::Profiler attribution tree of the profiled runs.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "common/invariant.hpp"
#include "sim/sirius_sim.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/json.hpp"
#include "telemetry/profile.hpp"
#include "workload/generator.hpp"

namespace {

using namespace sirius;

/// One named workload. All share Pareto(1.05) flows of mean 100 KB capped
/// at 2 MB, Valiant request/grant with Q = 4, 1.5x uplinks (8 base) and
/// audits every 64 rounds — the SiriusSimConfig defaults.
struct Spec {
  const char* name;
  std::int32_t racks;
  std::int32_t servers_per_rack;
  double load;
  std::int64_t flows;
  bool faults;                 ///< rack 2 down + grey link 0->1 (§4.5)
  std::int64_t ckpt_every_us;  ///< in-loop checkpoint cadence; 0 = off
  std::uint64_t seed1_digest;  ///< result digest pinned at --seed 1
};

// Re-pinning a digest is a behaviour change: it needs a CHANGES.md line
// that says why the simulator's results moved.
constexpr std::array<Spec, 4> kSpecs{{
    {"fig9_sparse", 128, 8, 0.1, 20'000, false, 0, 0x95d3a8f28f4296f3},
    {"fig9_dense", 128, 24, 1.0, 20'000, false, 0, 0x2fae3b89b77fd014},
    {"fault_storm", 64, 8, 0.5, 12'000, true, 0, 0x733f4b926e1db40b},
    {"ckpt_replay", 64, 8, 0.5, 12'000, false, 100, 0xf0ceace8095a1091},
}};

// Set-ups and checkpoint round trips take milliseconds each. On a shared
// host their cost shifts for tens of milliseconds at a time, as the thread
// moves between unequally loaded cores, so a burst of them samples one
// state. A few are taken after every timed run instead, spreading the
// samples over the whole run; the minimums cover runs with few timed runs.
constexpr std::size_t kPerRound = 5;
constexpr std::size_t kMinSetups = 41;
constexpr std::size_t kMinRoundTrips = 40;
constexpr std::size_t kMinRuns = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path scratch;
};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Median of the samples, or 0 when there are none.
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// FNV-1a over 64-bit words, byte by byte.
class Fnv {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void time(Time t) { i64(t.picoseconds()); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Digest of every per-flow completion time and every SiriusSimResult and
/// FailoverStats field: two runs agree on it only if they agree on all of
/// the simulator's observable output.
std::uint64_t result_digest(const sim::SiriusSimResult& r) {
  Fnv h;
  h.i64(r.fct.completed_flows);
  h.i64(r.fct.short_flows);
  h.f64(r.fct.short_fct_p99_ms);
  h.f64(r.fct.short_fct_p50_ms);
  h.f64(r.fct.short_fct_mean_ms);
  h.f64(r.fct.all_fct_p99_ms);
  h.f64(r.fct.all_fct_mean_ms);
  h.f64(r.goodput_normalized);
  h.f64(r.worst_node_queue_peak_kb);
  h.f64(r.worst_reorder_peak_kb);
  h.i64(r.slots_simulated);
  h.i64(r.cells_delivered);
  h.i64(r.incomplete_flows);
  h.i64(r.rejected_flows);
  h.time(r.sim_end);
  h.i64(r.requests_sent);
  h.i64(r.grants_issued);
  h.i64(r.grants_denied_q);
  h.i64(r.grants_released);
  h.i64(r.slots_tx_relay);
  h.i64(r.slots_tx_first);
  const sim::FailoverStats& f = r.failover;
  h.i64(f.cells_dropped);
  h.i64(f.cells_retransmitted);
  h.i64(f.retx_abandoned);
  h.i64(f.duplicates_discarded);
  h.i64(f.flows_aborted);
  h.i64(f.schedule_swaps);
  h.i64(f.detection_rounds);
  h.i64(f.dissemination_rounds);
  h.time(f.detection_latency);
  h.time(f.dissemination_latency);
  h.u64(r.per_flow_completion.size());
  for (const Time t : r.per_flow_completion) h.time(t);
  return h.value();
}

std::uint64_t workload_digest(const workload::Workload& w) {
  Fnv h;
  h.u64(w.flows.size());
  for (const workload::Flow& f : w.flows) {
    h.i64(f.id);
    h.i64(f.src_server);
    h.i64(f.dst_server);
    h.i64(f.size.in_bytes());
    h.time(f.arrival);
  }
  return h.value();
}

sim::SiriusSimConfig make_config(const Spec& s) {
  sim::SiriusSimConfig cfg;
  cfg.racks = s.racks;
  cfg.servers_per_rack = s.servers_per_rack;
  cfg.base_uplinks = 8;
  if (s.faults) {
    cfg.faults.fail_rack(2, Time::us(200), Time::us(600));
    cfg.faults.grey_link(0, 1, 0.2, Time::us(100), Time::us(500));
  }
  return cfg;
}

/// The seed reaches the workload generator only; the simulator's own
/// streams keep their default seed.
workload::Workload make_workload(const Spec& s, const sim::SiriusSimConfig& cfg,
                                 std::uint64_t seed) {
  workload::GeneratorConfig g;
  g.servers = cfg.servers();
  g.server_rate = cfg.server_share();
  g.load = s.load;
  g.flow_count = s.flows;
  g.max_flow_size = DataSize::megabytes(2);
  g.seed = seed;
  return workload::generate(g);
}

std::int64_t flows_failed(const sim::SiriusSimResult& r) {
  return r.incomplete_flows + r.rejected_flows + r.failover.flows_aborted;
}

/// Counts verified operations and keeps the first few failure reasons.
class Verifier {
 public:
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (problems_.size() < 8) problems_.push_back(what);
  }
  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& problems() const {
    return problems_;
  }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> problems_;
};

struct Snapshot {
  std::int64_t slot = 0;
  std::string payload;
};

/// Per-scope self time, total time and calls summed over profiled runs.
struct PhaseTotals {
  std::array<double, telemetry::kProfScopeCount> self_ns{};
  std::array<double, telemetry::kProfScopeCount> total_ns{};
  std::array<double, telemetry::kProfScopeCount> calls{};

  void add(const telemetry::Profiler& p) {
    for (const auto& n : p.tree()) {
      if (n.scope == telemetry::ProfScope::kScopeCount) continue;  // root
      const auto i = static_cast<std::size_t>(n.scope);
      self_ns[i] += static_cast<double>(n.self_nanos());
      total_ns[i] += static_cast<double>(n.total_nanos);
      calls[i] += static_cast<double>(n.calls);
    }
  }
  [[nodiscard]] double self(telemetry::ProfScope s) const {
    return self_ns[static_cast<std::size_t>(s)];
  }
};

/// One metric as printed: value plus, for medians, the sample spread.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::vector<double> samples;  ///< empty for derived values and counts
};

/// The median of `samples`, each multiplied by `scale` (ns to the unit).
Metric median_of(std::string name, std::string unit,
                 std::vector<double> samples, double scale) {
  for (double& s : samples) s *= scale;
  const double m = median(samples);
  return {std::move(name), std::move(unit), m, std::move(samples)};
}

Metric scalar(std::string name, std::string unit, double v) {
  return {std::move(name), std::move(unit), v, {}};
}

class Benchmark {
 public:
  Benchmark(const Spec& spec, const Options& opt)
      : spec_(spec), opt_(opt), cfg_(make_config(spec)) {}

  int run() {
    check::InvariantContext::instance().set_mode(
        check::InvariantMode::kCollect);
    set_up(1);
    warm_up();
    // Peak RSS is one set-up and one run, as a user pays them; it is read
    // before any snapshot is held in memory.
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    peak_rss_kb_ = static_cast<double>(u.ru_maxrss);
    capture_snapshots();
    const std::vector<Metric> metrics =
        opt_.trace ? per_layer_metrics() : end_to_end_metrics();
    std::error_code ec;
    std::filesystem::remove(snapshot_file(), ec);
    const std::int64_t violations =
        check::InvariantContext::instance().violations();
    verify_.check(violations == 0,
                  "invariant audits reported " + std::to_string(violations) +
                      " violation(s)");
    return report(metrics);
  }

 private:
  /// Set-up as a user pays it, `n` times: generate the workload, construct
  /// the sim. The first set-up's workload is the one every run uses; every
  /// later one must produce the same flows.
  void set_up(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t t0 = now_ns();
      workload::Workload w = make_workload(spec_, cfg_, opt_.seed);
      const std::uint64_t t1 = now_ns();
      std::uint64_t t2 = 0;
      {
        const sim::SiriusSim sim(cfg_, w);
        t2 = now_ns();
      }
      generate_ns_.push_back(static_cast<double>(t1 - t0));
      construct_ns_.push_back(static_cast<double>(t2 - t1));
      setup_ns_.push_back(static_cast<double>(t2 - t0));
      const std::uint64_t d = workload_digest(w);
      if (setup_ns_.size() == 1) {
        workload_ = std::move(w);
        workload_digest_ = d;
      }
      verify_.check(d == workload_digest_,
                    "workload generation is not deterministic");
    }
  }

  /// Runs a freshly constructed sim to the end. `ns` gets the host time of
  /// run() alone; `sunk` counts the in-loop snapshots of ckpt workloads.
  sim::SiriusSimResult run_sim(telemetry::Hub* hub, double* ns,
                               std::size_t* sunk) {
    sim::SiriusSimConfig c = cfg_;
    c.telemetry = hub;
    if (spec_.ckpt_every_us > 0) {
      c.checkpoint_every = Time::us(spec_.ckpt_every_us);
      c.checkpoint_sink = [sunk](std::int64_t, Time, const std::string&) {
        ++*sunk;
      };
    }
    sim::SiriusSim sim(c, workload_);
    const std::uint64_t t0 = now_ns();
    sim::SiriusSimResult r = sim.run();
    *ns = static_cast<double>(now_ns() - t0);
    return r;
  }

  /// Untimed warm-up run that fixes the reference digest every later run
  /// is checked against.
  void warm_up() {
    double ns = 0.0;
    ref_ = run_sim(nullptr, &ns, &ref_sunk_);
    digest_ = result_digest(ref_);
    const bool pinned = opt_.seed != 1 || digest_ == spec_.seed1_digest;
    verify_.check(pinned, "seed-1 digest " + hex(digest_) +
                              " differs from the pinned " +
                              hex(spec_.seed1_digest));
    // Without faults every flow must finish; with them, the §4.5 path must
    // have detected the failure, told every rack, and swapped the schedule
    // out and back.
    const sim::FailoverStats& f = ref_.failover;
    const bool behaved =
        spec_.faults ? (f.schedule_swaps == 2 && f.detection_rounds >= 0 &&
                        f.dissemination_rounds >= 0)
                     : flows_failed(ref_) == 0;
    verify_.check(behaved && ref_.cells_delivered > 0,
                  "reference run misbehaved (failed flows " +
                      std::to_string(flows_failed(ref_)) + ", swaps " +
                      std::to_string(f.schedule_swaps) +
                      ", detection rounds " +
                      std::to_string(f.detection_rounds) +
                      ", dissemination rounds " +
                      std::to_string(f.dissemination_rounds) + ")");
  }

  /// One timed run, checked against the warm-up run; returns host ns.
  double timed_run(telemetry::Hub* hub) {
    double ns = 0.0;
    std::size_t sunk = 0;
    const sim::SiriusSimResult r = run_sim(hub, &ns, &sunk);
    verify_.check(result_digest(r) == digest_ && sunk == ref_sunk_,
                  "a timed run diverged from the warm-up run");
    return ns;
  }

  /// One more run that keeps its snapshots for the round trips. Workloads
  /// without an in-loop cadence snapshot every quarter of the arrival
  /// window. Taking snapshots must not change the result.
  void capture_snapshots() {
    sim::SiriusSimConfig c = cfg_;
    c.checkpoint_every = spec_.ckpt_every_us > 0
                             ? Time::us(spec_.ckpt_every_us)
                             : workload_.last_arrival() / 4;
    c.checkpoint_sink = [this](std::int64_t slot, Time, const std::string& p) {
      snaps_.push_back({slot, p});
    };
    const sim::SiriusSimResult r = sim::SiriusSim(c, workload_).run();
    verify_.check(result_digest(r) == digest_ && !snaps_.empty() &&
                      (spec_.ckpt_every_us == 0 || snaps_.size() == ref_sunk_),
                  "the snapshot-taking run diverged from the warm-up run");
  }

  [[nodiscard]] bool time_left(std::uint64_t deadline,
                               std::size_t runs) const {
    return runs < kMinRuns || now_ns() < deadline;
  }

  [[nodiscard]] std::uint64_t deadline() const {
    return now_ns() + static_cast<std::uint64_t>(opt_.seconds * 1e9);
  }

  [[nodiscard]] std::filesystem::path snapshot_file() const {
    return opt_.scratch / "snapshot.ckpt";
  }

  /// Saves, loads and restores `n` snapshots, taking them in turn. Each
  /// round trip must give back the saved bytes, and the restored sim must
  /// re-serialize to exactly the snapshot.
  void checkpoint_round_trips(std::size_t n) {
    if (snaps_.empty()) return;  // already failed in capture_snapshots()
    const std::filesystem::path file = snapshot_file();
    for (std::size_t i = 0; i < n; ++i) {
      const Snapshot& s = snaps_[save_ns_.size() % snaps_.size()];
      std::string err;
      const std::uint64_t t0 = now_ns();
      const bool saved = ckpt::save(file, s.payload, &err);
      const std::uint64_t t1 = now_ns();
      const ckpt::LoadResult loaded = ckpt::load(file);
      const std::uint64_t t2 = now_ns();
      sim::SiriusSim sim(cfg_, workload_);
      const std::uint64_t t3 = now_ns();
      const bool restored =
          loaded.ok() && sim.restore_state(loaded.payload, &err);
      const std::uint64_t t4 = now_ns();
      const std::string again = restored ? sim.checkpoint_state() : "";
      const std::uint64_t t5 = now_ns();
      verify_.check(saved && loaded.ok() && loaded.payload == s.payload &&
                        restored && again == s.payload,
                    "checkpoint round trip at slot " + std::to_string(s.slot) +
                        " failed: " + (err.empty() ? loaded.message : err));
      save_ns_.push_back(static_cast<double>(t1 - t0));
      load_ns_.push_back(static_cast<double>(t2 - t1));
      restore_ns_.push_back(static_cast<double>(t4 - t3));
      serialize_ns_.push_back(static_cast<double>(t5 - t4));
    }
  }

  /// The set-ups and round trips taken after each timed run.
  void between_runs() {
    set_up(kPerRound);
    checkpoint_round_trips(kPerRound);
  }

  /// Tops set-ups and round trips up to their minimum sample counts.
  void top_up() {
    set_up(kMinSetups - std::min(kMinSetups, setup_ns_.size()));
    checkpoint_round_trips(kMinRoundTrips -
                           std::min(kMinRoundTrips, save_ns_.size()));
  }

  /// Restores the middle snapshot and runs it to the end: the result must
  /// match the straight run. Returns host ns per resumed slot.
  double resume_middle() {
    if (snaps_.empty()) return 0.0;  // already failed in capture_snapshots()
    const Snapshot& mid = snaps_[snaps_.size() / 2];
    sim::SiriusSim sim(cfg_, workload_);
    std::string err;
    const bool restored = sim.restore_state(mid.payload, &err);
    const std::uint64_t t0 = now_ns();
    const sim::SiriusSimResult r =
        restored ? sim.run() : sim::SiriusSimResult{};
    const std::uint64_t ns = now_ns() - t0;
    verify_.check(restored && result_digest(r) == digest_,
                  "run resumed from slot " + std::to_string(mid.slot) +
                      " diverged from the straight run " + err);
    return ratio(static_cast<double>(ns),
                 static_cast<double>(r.slots_simulated - mid.slot));
  }

  std::vector<Metric> end_to_end_metrics() {
    std::vector<double> run_ns;
    const std::uint64_t until = deadline();
    while (time_left(until, run_ns.size())) {
      run_ns.push_back(timed_run(nullptr));
      between_runs();
    }
    top_up();
    (void)resume_middle();

    const double slots = static_cast<double>(ref_.slots_simulated);
    const double cells = static_cast<double>(ref_.cells_delivered);
    std::vector<double> per_slot;
    std::vector<double> cells_per_sec;
    for (const double ns : run_ns) {
      per_slot.push_back(ns / slots);
      cells_per_sec.push_back(cells * 1e9 / ns);
    }
    std::vector<double> restore_ns;
    for (std::size_t i = 0; i < load_ns_.size(); ++i) {
      restore_ns.push_back(load_ns_[i] + restore_ns_[i]);
    }
    return {
        median_of("wall_ns_per_slot", "ns", per_slot, 1.0),
        median_of("cells_per_sec", "1/s", cells_per_sec, 1.0),
        median_of("setup_s", "s", setup_ns_, 1e-9),
        scalar("peak_rss_mb", "MB", peak_rss_kb_ / 1024.0),
        median_of("ckpt_save_ms", "ms", save_ns_, 1e-6),
        median_of("ckpt_restore_ms", "ms", restore_ns, 1e-6),
    };
  }

  std::vector<Metric> per_layer_metrics() {
    // Untraced and profiled runs alternate so host drift hits both alike;
    // their ratio is the profiler's own cost.
    std::vector<double> plain_ns;
    std::vector<double> traced_ns;
    PhaseTotals phases;
    telemetry::TelemetryConfig tcfg;
    tcfg.profile = true;
    const std::uint64_t until = deadline();
    while (time_left(until, traced_ns.size())) {
      plain_ns.push_back(timed_run(nullptr));
      telemetry::Hub hub(tcfg);
      traced_ns.push_back(timed_run(&hub));
      (void)hub.finish();
      phases.add(hub.profiler());
      between_runs();
    }
    top_up();
    const double resume = resume_middle();

    using telemetry::ProfScope;
    const double slots = static_cast<double>(ref_.slots_simulated);
    const double traced_slots = slots * static_cast<double>(traced_ns.size());
    auto per_slot = [&](ProfScope s) {
      return ratio(phases.self(s), traced_slots);
    };
    const double loop_ns =
        phases.total_ns[static_cast<std::size_t>(ProfScope::kSlotLoop)];
    auto share_pct = [&](ProfScope s) {
      return 100.0 * ratio(phases.self(s), loop_ns);
    };
    const auto epoch = static_cast<std::size_t>(ProfScope::kEpochCc);
    const double traced = median(traced_ns) / slots;
    const double plain = median(plain_ns) / slots;

    const sim::SiriusSimResult& r = ref_;
    const double tx = static_cast<double>(r.slots_tx_first + r.slots_tx_relay);
    const double pair_slots =
        slots * static_cast<double>(cfg_.racks) *
        static_cast<double>(cfg_.uplinks());
    const double requests = static_cast<double>(r.requests_sent);
    double payload_bytes = 0.0;
    for (const Snapshot& s : snaps_) {
      payload_bytes += static_cast<double>(s.payload.size());
    }
    const double flows = static_cast<double>(workload_.flows.size());
    const sim::FailoverStats& f = r.failover;
    return {
        scalar("cc.epoch_ns_per_slot", "ns", per_slot(ProfScope::kEpochCc)),
        scalar("cc.epoch_us_per_epoch", "us",
               1e-3 * ratio(phases.total_ns[epoch], phases.calls[epoch])),
        scalar("sim.transmit_ns_per_slot", "ns",
               per_slot(ProfScope::kTransmit)),
        scalar("sim.land_inject_ns_per_slot", "ns",
               per_slot(ProfScope::kLandInject)),
        scalar("node.deliver_ns_per_slot", "ns", per_slot(ProfScope::kDeliver)),
        scalar("check.audit_ns_per_slot", "ns", per_slot(ProfScope::kAudit)),
        scalar("sim.loop_self_ns_per_slot", "ns",
               per_slot(ProfScope::kSlotLoop)),
        scalar("ctrl.failover_pct", "%", share_pct(ProfScope::kFailover)),
        scalar("ckpt.checkpoint_pct", "%", share_pct(ProfScope::kCheckpoint)),
        scalar("telemetry.traced_ns_per_slot", "ns", traced),
        scalar("telemetry.trace_overhead_pct", "%",
               100.0 * (ratio(traced, plain) - 1.0)),
        median_of("workload.generate_ms", "ms", generate_ns_, 1e-6),
        median_of("sim.construct_ms", "ms", construct_ns_, 1e-6),
        median_of("ckpt.serialize_ms", "ms", serialize_ns_, 1e-6),
        median_of("ckpt.load_ms", "ms", load_ns_, 1e-6),
        median_of("ckpt.restore_state_ms", "ms", restore_ns_, 1e-6),
        scalar("ckpt.resume_ns_per_slot", "ns", resume),
        scalar("sim.cells_per_slot", "cells/slot",
               ratio(static_cast<double>(r.cells_delivered), slots)),
        scalar("sim.pair_busy_frac", "frac", ratio(tx, pair_slots)),
        scalar("sim.relay_frac", "frac",
               ratio(static_cast<double>(r.slots_tx_relay), tx)),
        scalar("cc.requests_per_slot", "count/slot", ratio(requests, slots)),
        scalar("cc.grant_ratio", "frac",
               ratio(static_cast<double>(r.grants_issued), requests)),
        scalar("cc.denied_q_frac", "frac",
               ratio(static_cast<double>(r.grants_denied_q), requests)),
        scalar("node.queue_peak_kb", "KB", r.worst_node_queue_peak_kb),
        scalar("node.reorder_peak_kb", "KB", r.worst_reorder_peak_kb),
        scalar("ctrl.cells_dropped", "count",
               static_cast<double>(f.cells_dropped)),
        scalar("ctrl.cells_retransmitted", "count",
               static_cast<double>(f.cells_retransmitted)),
        scalar("ctrl.duplicates_discarded", "count",
               static_cast<double>(f.duplicates_discarded)),
        scalar("ctrl.schedule_swaps", "count",
               static_cast<double>(f.schedule_swaps)),
        scalar("ctrl.detection_rounds", "count",
               static_cast<double>(f.detection_rounds)),
        scalar("ckpt.payload_kb", "KB",
               1e-3 * ratio(payload_bytes, static_cast<double>(snaps_.size()))),
        scalar("stats.short_fct_p99_us", "sim_us",
               1e3 * r.fct.short_fct_p99_ms),
        scalar("stats.goodput_norm", "frac", r.goodput_normalized),
        scalar("stats.flows_failed_frac", "frac",
               ratio(static_cast<double>(flows_failed(r)), flows)),
    };
  }

  static std::string hex(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
  }

  int report(const std::vector<Metric>& metrics) const {
    std::printf("workload %s  seed %llu  trace %d\n", spec_.name,
                static_cast<unsigned long long>(opt_.seed),
                opt_.trace ? 1 : 0);
    telemetry::JsonObject json_metrics;
    for (const Metric& m : metrics) {
      std::printf("  %-30s %16.6f %-10s", m.name.c_str(), m.value,
                  m.unit.c_str());
      if (!m.samples.empty()) {
        const auto [lo, hi] =
            std::minmax_element(m.samples.begin(), m.samples.end());
        std::printf("  median of %zu, min %.6f, max %.6f", m.samples.size(),
                    *lo, *hi);
      }
      std::printf("\n");
      telemetry::JsonObject o;
      o.add_num("value", m.value);
      o.add("unit", m.unit);
      json_metrics.add_raw(m.name, o.str());
    }
    const bool correct = verify_.failed() == 0;
    std::printf("verify %s: %s  digest %s  attempted %lld  failed %lld\n",
                spec_.name, correct ? "ok" : "FAILED", hex(digest_).c_str(),
                static_cast<long long>(verify_.attempted()),
                static_cast<long long>(verify_.failed()));
    for (const std::string& p : verify_.problems()) {
      std::fprintf(stderr, "sirius_benchmark: %s\n", p.c_str());
    }
    telemetry::JsonObject doc;
    doc.add_bool("correct", correct);
    doc.add_int("attempted", verify_.attempted());
    doc.add_int("failed", verify_.failed());
    doc.add_raw("metrics", json_metrics.str());
    std::printf("%s\n", doc.str().c_str());
    return correct ? 0 : 1;
  }

  const Spec& spec_;
  const Options& opt_;
  const sim::SiriusSimConfig cfg_;
  Verifier verify_;
  workload::Workload workload_;
  std::uint64_t workload_digest_ = 0;
  double peak_rss_kb_ = 0.0;
  sim::SiriusSimResult ref_;
  std::uint64_t digest_ = 0;
  std::size_t ref_sunk_ = 0;
  std::vector<Snapshot> snaps_;
  std::vector<double> generate_ns_;
  std::vector<double> construct_ns_;
  std::vector<double> setup_ns_;
  std::vector<double> save_ns_;
  std::vector<double> load_ns_;
  std::vector<double> restore_ns_;
  std::vector<double> serialize_ns_;
};

int usage() {
  std::fprintf(stderr,
               "usage: sirius_benchmark --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --scratch <dir>\n"
               "workloads:");
  for (const Spec& s : kSpecs) std::fprintf(stderr, " %s", s.name);
  std::fprintf(stderr, "\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = v;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(v, &end);
    } else if (key == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return usage();
      opt.trace = v[0] == '1';
    } else if (key == "--scratch") {
      opt.scratch = v;
    } else {
      return usage();
    }
    if (end != nullptr && (*end != '\0' || end == v)) return usage();
  }
  if (argc % 2 == 0 || opt.scratch.empty() || !(opt.seconds > 0.0)) {
    return usage();
  }
  for (const Spec& s : kSpecs) {
    if (opt.workload == s.name) return Benchmark(s, opt).run();
  }
  return usage();
}
