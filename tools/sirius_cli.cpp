// sirius_cli — command-line driver for one-off experiments.
//
//   sirius_cli run   [--system sirius|sirius-ideal|esn|esn-osub]
//                    [--racks N] [--servers-per-rack N] [--uplinks N]
//                    [--load L] [--flows N] [--seed S] [--q N]
//                    [--guardband-ns G] [--multiplier M]
//                    [--trace file.csv] [--fail rack[,rack...]]
//                    [--fault RACK@T_US[+DURATION_US][,...]]
//                    [--grey SRC>DST@LOSS[@FROM_US-UNTIL_US][,...]]
//                    [--metrics-out m.jsonl|m.csv] [--metrics-every-us U]
//                    [--trace-events out.json] [--trace-sample N]
//                    [--trace-max-events N] [--flight-recorder DEPTH]
//                    [--manifest run.json] [--profile]
//                    [--profile-flame flame.json]
//                    [--checkpoint-every-us U --checkpoint-out ck-{t}.ckpt]
//                    [--restore snapshot.ckpt]
//
// `--fail` statically removes racks for the whole run (sugar for a fault at
// t = 0). `--fault` and `--grey` build a §4.5 mid-run fault timeline: the
// fabric must detect the fault in-band, reconfigure, and recover lost
// cells; the run then also prints a failover summary (detection and
// dissemination latency, drops, retransmissions, goodput transient).
//
// Telemetry (docs/OBSERVABILITY.md): `--trace` is a workload *input* (a
// flow trace CSV); `--trace-events` is a telemetry *output* (Chrome
// trace-event JSON, loadable in Perfetto). `--metrics-out` streams the
// metric registry on an epoch cadence, `--manifest` writes the
// self-describing run manifest, `--profile` prints a wall-clock table of
// the simulator hot paths with hierarchical self/total attribution.
// `--profile-flame` writes the same attribution tree as flame-graph-style
// JSON. None of these change simulation results.
//
// Checkpointing (docs/OPERABILITY.md): `--checkpoint-every-us` +
// `--checkpoint-out` write a crash-safe `sirius.ckpt.v1` snapshot of the
// full simulator state on a cadence (`{t}` in the pattern becomes the
// snapshot time in microseconds); `--restore` resumes a run from one. A
// resumed run is bit-identical to the uninterrupted run — same config,
// workload and fault plan required; only the seed may differ.
//
//   sirius_cli bisect [run-shaping options] [--checkpoint-every-us U]
//
// `bisect` runs the experiment once with in-memory snapshots and, if any
// invariant fires, replays from the nearest clean snapshot at full audit
// granularity to pin the first violating slot (exit 1 with the report;
// exit 0 when the run is clean).
//
//   sirius_cli fork --restore snapshot.ckpt [--forks N] [--salt S]
//                   [run-shaping options]
//
// `fork` runs N what-if continuations of one snapshot, each with freshly
// salted RNG streams (and optionally a different fault timeline), printing
// one metrics row per fork.
//
//   sirius_cli gen   --out file.csv [--racks N] [--servers-per-rack N]
//                    [--load L] [--flows N] [--seed S]
//   sirius_cli info  [--racks N] [--servers-per-rack N] [--uplinks N]
//
// `run` prints one metrics row; `gen` writes a workload trace; `info`
// prints the derived deployment parameters (schedule geometry, epoch,
// laser/link budget).
//
// Unknown options and malformed numbers are hard errors (exit 2): a typo
// like `--flowss` or `--racks x8` must fail loudly, not silently run some
// other configuration. Unreadable or unparsable `--restore` files and
// output paths whose directory does not exist are also exit 2, detected
// before the simulation starts.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "common/config.hpp"
#include "common/invariant.hpp"
#include "core/experiment.hpp"
#include "optical/link_budget.hpp"
#include "sched/schedule.hpp"
#include "sim/sirius_sim.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/manifest.hpp"
#include "workload/trace_io.hpp"

using namespace sirius;
using namespace sirius::core;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
};

// Per-command option allowlists. parse() rejects anything not listed for
// the given command, so every accepted spelling appears exactly once here.
const std::vector<const char*>& allowed_options(const std::string& command) {
  static const std::vector<const char*> kRun = {
      "system",       "racks",          "servers-per-rack",
      "uplinks",      "load",           "flows",
      "seed",         "q",              "guardband-ns",
      "multiplier",   "trace",          "fail",
      "fault",        "grey",           "metrics-out",
      "metrics-every-us",               "trace-events",
      "trace-sample", "trace-max-events",
      "flight-recorder",                "manifest",
      "profile",      "profile-flame",
      "checkpoint-every-us",
      "checkpoint-out",                 "restore"};
  static const std::vector<const char*> kBisect = {
      "racks",      "servers-per-rack",
      "uplinks",    "load",
      "flows",      "seed",
      "q",          "guardband-ns",
      "multiplier", "trace",
      "fail",       "fault",
      "grey",       "checkpoint-every-us"};
  static const std::vector<const char*> kFork = {
      "racks", "servers-per-rack", "uplinks",      "load",
      "flows", "seed",             "q",            "guardband-ns",
      "multiplier",                "trace",        "fail",
      "fault", "grey",             "restore",      "forks",
      "salt"};
  static const std::vector<const char*> kGen = {
      "out", "racks", "servers-per-rack", "uplinks", "load", "flows", "seed"};
  static const std::vector<const char*> kInfo = {
      "racks", "servers-per-rack", "uplinks", "multiplier"};
  static const std::vector<const char*> kNone = {};
  if (command == "run") return kRun;
  if (command == "bisect") return kBisect;
  if (command == "fork") return kFork;
  if (command == "gen") return kGen;
  if (command == "info") return kInfo;
  return kNone;
}

// Calls `fn` on each comma-separated piece of `list`, empty pieces included.
template <typename Fn>
void for_each_piece(const std::string& list, Fn fn) {
  for (std::size_t pos = 0;;) {
    const std::size_t comma = list.find(',', pos);
    fn(list.substr(pos, comma - pos));
    if (comma == std::string::npos) return;
    pos = comma + 1;
  }
}

// False when a numeric option's value is not a number in full (`--fail`
// takes a comma-separated list of integers). parse() rejects such values,
// so opt_int, opt_double and the --fail loop only ever see well-formed ones.
bool well_formed(const std::string& key, const std::string& value) {
  static const std::set<std::string> kInts = {
      "racks",        "servers-per-rack", "uplinks",
      "flows",        "seed",             "q",
      "trace-sample", "trace-max-events", "flight-recorder",
      "forks",        "salt"};
  static const std::set<std::string> kDoubles = {
      "load", "guardband-ns", "multiplier", "metrics-every-us",
      "checkpoint-every-us"};
  if (kInts.count(key) > 0) return parse_int(value).has_value();
  if (kDoubles.count(key) > 0) return parse_double(value).has_value();
  bool ok = true;
  if (key == "fail" && !value.empty()) {
    for_each_piece(value, [&ok](const std::string& rack) {
      ok = ok && parse_int(rack).has_value();
    });
  }
  return ok;
}

// Parses `<command> [--key [value]]...`, validating every option against
// the command's allowlist and every numeric value in full. Returns nullopt
// (after printing the error) on an unknown option, a malformed number or a
// stray positional argument.
std::optional<Args> parse(int argc, char** argv) {
  Args a;
  if (argc >= 2) a.command = argv[1];
  const std::vector<const char*>& allowed = allowed_options(a.command);
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "error: unexpected argument '%s'\n", key.c_str());
      return std::nullopt;
    }
    key = key.substr(2);
    bool known = false;
    for (const char* name : allowed) known = known || key == name;
    if (!known) {
      std::fprintf(stderr,
                   "error: unknown option --%s for '%s' (see the header of "
                   "tools/sirius_cli.cpp for the option list)\n",
                   key.c_str(), a.command.c_str());
      return std::nullopt;
    }
    std::string value = "1";
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      value = argv[++i];
    }
    if (!well_formed(key, value)) {
      std::fprintf(stderr, "error: --%s: malformed number '%s'\n",
                   key.c_str(), value.c_str());
      return std::nullopt;
    }
    a.options[key] = value;
  }
  return a;
}

std::int64_t opt_int(const Args& a, const std::string& k, std::int64_t d) {
  auto it = a.options.find(k);
  return it == a.options.end() ? d : *parse_int(it->second);
}

double opt_double(const Args& a, const std::string& k, double d) {
  auto it = a.options.find(k);
  return it == a.options.end() ? d : *parse_double(it->second);
}

std::string opt_str(const Args& a, const std::string& k,
                    const std::string& d) {
  auto it = a.options.find(k);
  return it == a.options.end() ? d : it->second;
}

ExperimentConfig experiment_from(const Args& a) {
  ExperimentConfig cfg = ExperimentConfig::from_env();
  cfg.racks = static_cast<std::int32_t>(opt_int(a, "racks", cfg.racks));
  cfg.servers_per_rack = static_cast<std::int32_t>(
      opt_int(a, "servers-per-rack", cfg.servers_per_rack));
  cfg.base_uplinks =
      static_cast<std::int32_t>(opt_int(a, "uplinks", cfg.base_uplinks));
  cfg.flows = opt_int(a, "flows", cfg.flows);
  cfg.seed = static_cast<std::uint64_t>(
      opt_int(a, "seed", static_cast<std::int64_t>(cfg.seed)));
  return cfg;
}

// The Sirius knobs of `run`, `bisect` and `fork`: --system sirius-ideal,
// --q, --guardband-ns and --multiplier.
SiriusVariant variant_from(const Args& a) {
  SiriusVariant v;
  if (opt_str(a, "system", "sirius") == "sirius-ideal") {
    v.routing = sim::RoutingMode::kIdeal;
  }
  v.queue_limit = static_cast<std::int32_t>(opt_int(a, "q", 4));
  v.guardband = Time::from_ns(opt_double(a, "guardband-ns", 10.0));
  v.uplink_multiplier = opt_double(a, "multiplier", 1.5);
  return v;
}

telemetry::TelemetryConfig telemetry_from(const Args& a) {
  telemetry::TelemetryConfig tc;
  tc.metrics_out = opt_str(a, "metrics-out", "");
  tc.metrics_every =
      Time::from_ns(opt_double(a, "metrics-every-us", 10.0) * 1e3);
  tc.trace_out = opt_str(a, "trace-events", "");
  tc.trace_flow_sample = opt_int(a, "trace-sample", 1);
  tc.trace_max_events = opt_int(a, "trace-max-events", 1'000'000);
  tc.flight_recorder_depth =
      static_cast<std::int32_t>(opt_int(a, "flight-recorder", 0));
  tc.profile = a.options.count("profile") > 0;
  tc.flame_out = opt_str(a, "profile-flame", "");
  return tc;
}

// True when `path` can plausibly be created: its directory part (or the
// cwd) exists. Checked before a run starts, so a typo'd output directory
// is exit 2 upfront rather than a wasted simulation.
bool output_dir_exists(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  std::error_code ec;
  return parent.empty() || std::filesystem::is_directory(parent, ec);
}

// The direct-simulator setup shared by `run` (faulted/checkpointed),
// `bisect` and `fork`: geometry, workload (generated or loaded from a
// trace), and the parsed+validated fault timeline.
struct SimSetup {
  ExperimentConfig cfg;
  double load = 0.5;
  sim::SiriusSimConfig s;
  workload::Workload w;
  bool dynamic = false;      ///< any mid-run fault events
  bool have_faults = false;  ///< any of --fail/--fault/--grey given
};

// Builds the setup, printing the error and setting `*rc` on failure
// (1 for bad values, matching the historical `run` behaviour).
std::optional<SimSetup> build_setup(const Args& a, int* rc) {
  SimSetup out;
  out.cfg = experiment_from(a);
  out.load = opt_double(a, "load", 0.5);

  out.s = make_sirius_config(out.cfg, variant_from(a));

  const std::string trace = opt_str(a, "trace", "");
  if (!trace.empty()) {
    auto loaded = workload::load_trace_csv(trace, out.cfg.servers(),
                                           out.cfg.server_share());
    if (!loaded.has_value()) {
      std::fprintf(stderr, "error: cannot load trace %s\n", trace.c_str());
      *rc = 1;
      return std::nullopt;
    }
    out.w = std::move(*loaded);
    out.w.offered_load = out.load;
  } else {
    out.w = make_workload(out.cfg, out.load);
  }

  const std::string fail = opt_str(a, "fail", "");
  const std::string fault = opt_str(a, "fault", "");
  const std::string grey = opt_str(a, "grey", "");
  out.have_faults = !fail.empty() || !fault.empty() || !grey.empty();
  if (!fault.empty()) {
    if (const auto err = out.s.faults.parse_fault(fault)) {
      std::fprintf(stderr, "error: --fault: %s\n", err->c_str());
      *rc = 1;
      return std::nullopt;
    }
  }
  if (!grey.empty()) {
    if (const auto err = out.s.faults.parse_grey(grey)) {
      std::fprintf(stderr, "error: --grey: %s\n", err->c_str());
      *rc = 1;
      return std::nullopt;
    }
  }
  // --fail racks are down for the whole run.
  if (!fail.empty()) {
    for_each_piece(fail, [&out](const std::string& rack) {
      out.s.faults.fail_rack(static_cast<NodeId>(*parse_int(rack)),
                             Time::zero());
    });
  }
  // Validate the whole timeline against the rack count before touching the
  // simulator: out-of-range ids and duplicate failures are user errors, not
  // invariant violations.
  if (const auto err = out.s.faults.validate(out.s.racks)) {
    std::fprintf(stderr, "error: fault plan: %s\n", err->c_str());
    *rc = 1;
    return std::nullopt;
  }
  out.dynamic = out.s.faults.dynamic();
  out.s.record_recovery_curve = out.dynamic;
  return out;
}

// Checkpoint-related `run` options, validated upfront (all failures are
// exit 2 before any simulation work).
struct CkptOpts {
  Time every = Time::zero();    ///< zero = no cadence
  std::string out_pattern;      ///< `{t}` -> snapshot time in us
  std::string restore_path;     ///< empty = fresh start
  std::string restore_payload;  ///< loaded + CRC-validated upfront
  [[nodiscard]] bool active() const {
    return every > Time::zero() || !restore_path.empty();
  }
};

std::optional<CkptOpts> ckpt_opts_from(const Args& a) {
  CkptOpts ck;
  const double every_us = opt_double(a, "checkpoint-every-us", 0.0);
  ck.out_pattern = opt_str(a, "checkpoint-out", "");
  ck.restore_path = opt_str(a, "restore", "");
  if ((every_us > 0.0) != !ck.out_pattern.empty()) {
    std::fprintf(stderr,
                 "error: --checkpoint-every-us and --checkpoint-out must be "
                 "given together\n");
    return std::nullopt;
  }
  if (every_us < 0.0) {
    std::fprintf(stderr, "error: --checkpoint-every-us must be positive\n");
    return std::nullopt;
  }
  if (every_us > 0.0) ck.every = Time::from_ns(every_us * 1e3);
  if (!ck.out_pattern.empty() && !output_dir_exists(ck.out_pattern)) {
    std::fprintf(stderr,
                 "error: --checkpoint-out directory for '%s' does not exist\n",
                 ck.out_pattern.c_str());
    return std::nullopt;
  }
  if (!ck.restore_path.empty()) {
    ckpt::LoadResult lr = ckpt::load(ck.restore_path);
    if (!lr.ok()) {
      std::fprintf(stderr, "error: --restore %s: %s\n",
                   ck.restore_path.c_str(), lr.message.c_str());
      return std::nullopt;
    }
    ck.restore_payload = std::move(lr.payload);
  }
  return ck;
}

// `ck-{t}.ckpt` at t = 125 us -> `ck-125.ckpt`. Without `{t}` every write
// lands on the same path; the atomic rename makes that a crash-safe
// "latest snapshot" file.
std::string ckpt_path_at(const std::string& pattern, Time at) {
  const long long us =
      static_cast<long long>(at.picoseconds() / 1'000'000);
  const std::size_t brace = pattern.find("{t}");
  if (brace == std::string::npos) return pattern;
  return pattern.substr(0, brace) + std::to_string(us) +
         pattern.substr(brace + 3);
}

// Writes the run manifest: one JSON artifact that makes the run
// reproducible (config, seed, fault plan, build flags) and self-describing
// (final metrics, sibling artifact paths).
bool write_manifest(const std::string& path, const Args& a,
                    const ExperimentConfig& cfg, const std::string& system,
                    double load, const workload::Workload& w,
                    const RunMetrics& m, telemetry::Hub& hub,
                    const std::vector<telemetry::Hub::Artifact>& artifacts) {
  telemetry::Manifest man;

  telemetry::JsonObject& run = man.section("run");
  run.add("command", "run").add("system", system);
  run.add_num("load", load);
  run.add_int("seed", static_cast<std::int64_t>(cfg.seed));

  telemetry::Manifest::add_build_info(man.section("build"));

  telemetry::JsonObject& c = man.section("config");
  c.add_int("racks", cfg.racks)
      .add_int("servers_per_rack", cfg.servers_per_rack)
      .add_int("base_uplinks", cfg.base_uplinks)
      .add_int("flows", cfg.flows)
      .add_num("queue_limit", opt_double(a, "q", 4))
      .add_num("guardband_ns", opt_double(a, "guardband-ns", 10.0))
      .add_num("uplink_multiplier", opt_double(a, "multiplier", 1.5));

  telemetry::JsonObject& wl = man.section("workload");
  wl.add_int("flows", static_cast<std::int64_t>(w.flows.size()))
      .add("total", w.total_bytes().to_string())
      .add_num("offered_load", w.offered_load);
  const std::string trace_in = opt_str(a, "trace", "");
  if (!trace_in.empty()) wl.add("trace_csv", trace_in);

  telemetry::JsonObject& f = man.section("faults");
  f.add("fail", opt_str(a, "fail", ""))
      .add("fault", opt_str(a, "fault", ""))
      .add("grey", opt_str(a, "grey", ""));

  telemetry::JsonObject& res = man.section("results");
  res.add_num("goodput", m.goodput)
      .add_num("short_fct_p99_ms", m.short_fct_p99_ms)
      .add_num("queue_peak_kb", m.queue_peak_kb)
      .add_num("reorder_peak_kb", m.reorder_peak_kb)
      .add_int("incomplete_flows", m.incomplete);

  // Final value of every registered scalar metric, in column order.
  telemetry::JsonObject& fin = man.section("metrics");
  const std::vector<std::string> names = hub.metrics().series_names();
  const std::vector<double> values = hub.metrics().series_values();
  for (std::size_t i = 0; i < names.size() && i < values.size(); ++i) {
    fin.add_num(names[i], values[i]);
  }
  man.section("histograms")
      .add_raw("summary", hub.metrics().histograms_json());

  std::vector<std::string> items;
  for (const telemetry::Hub::Artifact& art : artifacts) {
    telemetry::JsonObject o;
    o.add("kind", art.kind).add("path", art.path).add_bool("ok", art.ok);
    items.push_back(o.str());
  }
  man.section("artifacts").add_raw("written", telemetry::json_array(items));

  return man.write(path);
}

int cmd_run(const Args& a) {
  const ExperimentConfig cfg = experiment_from(a);
  const double load = opt_double(a, "load", 0.5);
  const std::string system = opt_str(a, "system", "sirius");

  const telemetry::TelemetryConfig tc = telemetry_from(a);
  const std::string manifest_opt = opt_str(a, "manifest", "");
  for (const std::string& out :
       {tc.metrics_out, tc.trace_out, tc.flame_out, manifest_opt}) {
    if (!out.empty() && !output_dir_exists(out)) {
      std::fprintf(stderr, "error: output directory for '%s' does not exist\n",
                   out.c_str());
      return 2;
    }
  }
  if (tc.metrics_every <= Time::zero()) {
    std::fprintf(stderr, "error: --metrics-every-us must be positive\n");
    return 2;
  }
  const std::optional<CkptOpts> ck = ckpt_opts_from(a);
  if (!ck.has_value()) return 2;
  telemetry::Hub hub(tc);

  workload::Workload w;
  const std::string trace = opt_str(a, "trace", "");
  if (!trace.empty()) {
    auto loaded =
        workload::load_trace_csv(trace, cfg.servers(), cfg.server_share());
    if (!loaded.has_value()) {
      std::fprintf(stderr, "error: cannot load trace %s\n", trace.c_str());
      return 1;
    }
    w = std::move(*loaded);
    w.offered_load = load;
  } else {
    w = make_workload(cfg, load);
  }

  RunMetrics m;  // every branch fills this; the manifest reads it
  // The header prints with the row (not upfront) so argument errors found
  // below never leave a dangling half-table on stdout.
  const auto print_result = [](const RunMetrics& mm) {
    print_metrics_header();
    print_metrics_row(mm);
  };
  int rc = 0;
  if (system == "esn" || system == "esn-osub") {
    if (ck->active()) {
      std::fprintf(stderr,
                   "error: checkpointing requires --system sirius or "
                   "sirius-ideal\n");
      return 2;
    }
    m = run_esn(cfg, system == "esn" ? 1 : 3, w, &hub);
    print_result(m);
  } else if (system == "sirius" || system == "sirius-ideal") {
    const std::string fail = opt_str(a, "fail", "");
    const std::string fault = opt_str(a, "fault", "");
    const std::string grey = opt_str(a, "grey", "");
    if (!fail.empty() || !fault.empty() || !grey.empty() || ck->active()) {
      int setup_rc = 1;
      std::optional<SimSetup> setup = build_setup(a, &setup_rc);
      if (!setup.has_value()) return setup_rc;
      sim::SiriusSimConfig s = setup->s;
      s.telemetry = &hub;
      const bool dynamic = setup->dynamic;
      std::string ckpt_error;
      if (ck->every > Time::zero()) {
        s.checkpoint_every = ck->every;
        s.checkpoint_sink = [&ck, &ckpt_error](std::int64_t /*slot*/, Time at,
                                               const std::string& payload) {
          const std::string path = ckpt_path_at(ck->out_pattern, at);
          std::string err;
          if (ckpt::save(path, payload, &err)) {
            std::printf("wrote checkpoint: %s\n", path.c_str());
          } else if (ckpt_error.empty()) {
            ckpt_error = path + ": " + err;
          }
        };
      }
      sim::SiriusSim sim(s, w);
      if (!ck->restore_path.empty()) {
        std::string err;
        if (!sim.restore_state(ck->restore_payload, &err)) {
          std::fprintf(stderr, "error: --restore %s: %s\n",
                       ck->restore_path.c_str(), err.c_str());
          return 2;
        }
        std::printf("restored checkpoint: %s\n", ck->restore_path.c_str());
      }
      const auto r = sim.run();
      if (!ckpt_error.empty()) {
        std::fprintf(stderr, "error: cannot write checkpoint %s\n",
                     ckpt_error.c_str());
        rc = 2;
      }
      m.system = !setup->have_faults ? "Sirius"
                 : dynamic           ? "Sirius(faulted)"
                                     : "Sirius(failed)";
      m.load = load;
      m.short_fct_p99_ms = r.fct.short_fct_p99_ms;
      m.goodput = r.goodput_normalized;
      m.queue_peak_kb = r.worst_node_queue_peak_kb;
      m.reorder_peak_kb = r.worst_reorder_peak_kb;
      m.incomplete = r.incomplete_flows;
      print_result(m);
      if (setup->have_faults) {
        std::printf("(rejected %lld flows touching failed racks)\n",
                    static_cast<long long>(r.rejected_flows));
      }
      if (dynamic) {
        const auto& fo = r.failover;
        std::printf("failover\n");
        std::printf("  detection            : %lld rounds (%s)\n",
                    static_cast<long long>(fo.detection_rounds),
                    fo.detection_latency.to_string().c_str());
        std::printf("  dissemination        : %lld rounds (%s)\n",
                    static_cast<long long>(fo.dissemination_rounds),
                    fo.dissemination_latency.to_string().c_str());
        std::printf("  schedule swaps       : %lld\n",
                    static_cast<long long>(fo.schedule_swaps));
        std::printf("  cells dropped        : %lld\n",
                    static_cast<long long>(fo.cells_dropped));
        std::printf("  cells retransmitted  : %lld (%lld abandoned, "
                    "%lld duplicates)\n",
                    static_cast<long long>(fo.cells_retransmitted),
                    static_cast<long long>(fo.retx_abandoned),
                    static_cast<long long>(fo.duplicates_discarded));
        std::printf("  flows aborted        : %lld\n",
                    static_cast<long long>(fo.flows_aborted));
        std::printf("  goodput dip          : floor %.2f of baseline %.3f, "
                    "width %s\n",
                    fo.recovery.dip_floor_frac, fo.recovery.baseline,
                    fo.recovery.dip_width.to_string().c_str());
        std::printf("  time to recover      : %s%s\n",
                    fo.recovery.time_to_recover.to_string().c_str(),
                    fo.recovery.recovered ? "" : " (not recovered)");
      }
    } else {
      m = run_sirius(cfg, variant_from(a), w, &hub);
      print_result(m);
    }
  } else {
    std::fprintf(stderr, "error: unknown --system %s\n", system.c_str());
    return 1;
  }

  // Flush telemetry artifacts; any write failure fails the run.
  const std::vector<telemetry::Hub::Artifact> artifacts = hub.finish();
  for (const telemetry::Hub::Artifact& art : artifacts) {
    if (art.ok) {
      std::printf("wrote %s: %s\n", art.kind.c_str(), art.path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s %s\n", art.kind.c_str(),
                   art.path.c_str());
      if (rc == 0) rc = 1;
    }
  }
  if (!manifest_opt.empty()) {
    if (write_manifest(manifest_opt, a, cfg, system, load, w, m, hub,
                       artifacts)) {
      std::printf("wrote manifest: %s\n", manifest_opt.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write manifest %s\n",
                   manifest_opt.c_str());
      if (rc == 0) rc = 1;
    }
  }
  if (tc.profile) {
    const std::string table = hub.profiler().table();
    if (!table.empty()) std::printf("%s", table.c_str());
  }
  return rc;
}

// `bisect`: find the first slot where an invariant fires, without paying
// slot-granularity auditing for the whole run. Phase 1 runs the experiment
// with in-memory snapshots on a cadence, collecting (not aborting on)
// violations; phase 2 replays from the newest snapshot taken before the
// first violation, at audit granularity 1 and freezing on the first hit.
int cmd_bisect(const Args& a) {
  int setup_rc = 1;
  const std::optional<SimSetup> setup = build_setup(a, &setup_rc);
  if (!setup.has_value()) return setup_rc;
  const double every_us = opt_double(a, "checkpoint-every-us", 25.0);
  if (every_us <= 0.0) {
    std::fprintf(stderr, "error: --checkpoint-every-us must be positive\n");
    return 2;
  }

  struct Snap {
    std::int64_t slot = 0;
    Time at;
    std::string payload;
    std::int64_t violations_before = 0;  ///< collected before this slot
  };
  std::vector<Snap> snaps;
  std::int64_t scan_slots = 0;
  bool clean = true;
  {
    check::ScopedCollect collect;
    sim::SiriusSimConfig s = setup->s;
    s.checkpoint_every = Time::from_ns(every_us * 1e3);
    s.checkpoint_sink = [&snaps, &collect](std::int64_t slot, Time at,
                                           const std::string& payload) {
      snaps.push_back({slot, at, payload, collect.violations()});
    };
    sim::SiriusSim scan(s, setup->w);
    scan_slots = scan.run().slots_simulated;
    clean = collect.violations() == 0;
  }
  if (clean) {
    std::printf("bisect: no invariant violations in %lld slots\n",
                static_cast<long long>(scan_slots));
    return 0;
  }

  // Newest snapshot from before the first violation; none means the
  // violation predates the first cadence point and the replay starts
  // from slot 0.
  const Snap* base = nullptr;
  for (const Snap& sn : snaps) {
    if (sn.violations_before == 0) base = &sn;
  }

  check::ScopedCollect collect;
  sim::SiriusSimConfig s = setup->s;
  s.audit_period_rounds = 1;
  s.stop_on_violation = true;
  sim::SiriusSim replay(s, setup->w);
  if (base != nullptr) {
    std::string err;
    if (!replay.restore_state(base->payload, &err)) {
      std::fprintf(stderr, "error: internal snapshot rejected: %s\n",
                   err.c_str());
      return 1;
    }
    std::printf("bisect: replaying from the slot-%lld snapshot (t=%s)\n",
                static_cast<long long>(base->slot),
                base->at.to_string().c_str());
  } else {
    std::printf("bisect: violation precedes the first snapshot; replaying "
                "from the start\n");
  }
  const auto r = replay.run();
  if (collect.violations() == 0) {
    // Possible when the scan's violation only manifests at coarser audit
    // cadence (an auditor summing over a window, say) — report honestly.
    std::printf("bisect: violation did not reproduce at slot "
                "granularity; it fired in the scan between cadence "
                "points\n");
    return 1;
  }
  std::printf("bisect: first invariant violation at slot %lld (t=%s)\n",
              static_cast<long long>(r.slots_simulated),
              r.sim_end.to_string().c_str());
  std::printf("%s", check::InvariantContext::instance().report().c_str());
  return 1;
}

// `fork`: N what-if continuations of one snapshot. Each fork restores the
// same state, then reseeds the RNG streams with a distinct salt (and runs
// under this invocation's fault timeline, which may differ from the
// snapshotting run's), so operators can ask "from this exact state, how
// does the tail behave under other futures?"
int cmd_fork(const Args& a) {
  const std::string restore_path = opt_str(a, "restore", "");
  if (restore_path.empty()) {
    std::fprintf(stderr, "error: fork requires --restore snapshot.ckpt\n");
    return 2;
  }
  ckpt::LoadResult lr = ckpt::load(restore_path);
  if (!lr.ok()) {
    std::fprintf(stderr, "error: --restore %s: %s\n", restore_path.c_str(),
                 lr.message.c_str());
    return 2;
  }
  const std::int64_t forks = opt_int(a, "forks", 4);
  if (forks < 1 || forks > 1024) {
    std::fprintf(stderr, "error: --forks must be in [1, 1024]\n");
    return 2;
  }
  int setup_rc = 1;
  const std::optional<SimSetup> setup = build_setup(a, &setup_rc);
  if (!setup.has_value()) return setup_rc;
  const std::uint64_t base_salt =
      static_cast<std::uint64_t>(opt_int(a, "salt", 1));

  print_metrics_header();
  for (std::int64_t k = 0; k < forks; ++k) {
    sim::SiriusSim sim(setup->s, setup->w);
    std::string err;
    if (!sim.restore_state(lr.payload, &err)) {
      std::fprintf(stderr, "error: --restore %s: %s\n", restore_path.c_str(),
                   err.c_str());
      return 2;
    }
    const std::uint64_t salt = base_salt + static_cast<std::uint64_t>(k);
    sim.reseed_streams(salt);
    const auto r = sim.run();
    RunMetrics m;
    m.system = "fork(salt=" + std::to_string(salt) + ")";
    m.load = setup->load;
    m.short_fct_p99_ms = r.fct.short_fct_p99_ms;
    m.goodput = r.goodput_normalized;
    m.queue_peak_kb = r.worst_node_queue_peak_kb;
    m.reorder_peak_kb = r.worst_reorder_peak_kb;
    m.incomplete = r.incomplete_flows;
    print_metrics_row(m);
  }
  return 0;
}

int cmd_gen(const Args& a) {
  const std::string out = opt_str(a, "out", "");
  if (out.empty()) {
    std::fprintf(stderr, "error: gen requires --out file.csv\n");
    return 1;
  }
  const ExperimentConfig cfg = experiment_from(a);
  const auto w = make_workload(cfg, opt_double(a, "load", 0.5));
  if (!workload::save_trace_csv(w, out)) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu flows (%s) to %s\n", w.flows.size(),
              w.total_bytes().to_string().c_str(), out.c_str());
  return 0;
}

int cmd_info(const Args& a) {
  const ExperimentConfig cfg = experiment_from(a);
  SiriusVariant v;
  v.uplink_multiplier = opt_double(a, "multiplier", 1.5);
  const auto s = make_sirius_config(cfg, v);
  const sched::CyclicSchedule sched(s.racks, s.uplinks());

  std::printf("deployment\n");
  std::printf("  racks x servers      : %d x %d (%d servers)\n", cfg.racks,
              cfg.servers_per_rack, cfg.servers());
  std::printf("  uplinks per rack     : %d base, %d with %.1fx headroom\n",
              cfg.base_uplinks, s.uplinks(), v.uplink_multiplier);
  std::printf("  per-server bandwidth : %s\n",
              cfg.server_share().to_string().c_str());
  std::printf("schedule\n");
  std::printf("  slot                 : %s (%lld B cell + %s guard)\n",
              s.slots.slot_duration().to_string().c_str(),
              static_cast<long long>(s.slots.cell_size().in_bytes()),
              s.slots.guardband().to_string().c_str());
  std::printf("  slots per round      : %d (epoch %s)\n",
              sched.slots_per_round(),
              (s.slots.slot_duration() * sched.slots_per_round())
                  .to_string()
                  .c_str());
  optical::LinkBudget lb;
  std::printf("optics\n");
  std::printf("  required launch power: %.1f dBm\n",
              lb.required_launch_power().in_dbm());
  std::printf("  laser chips per rack : %d (16.1 dBm lasers, x%d sharing)\n",
              lb.lasers_needed(s.uplinks(), optical::OpticalPower::dbm(16.1)),
              lb.max_sharing_degree(optical::OpticalPower::dbm(16.1)));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> a = parse(argc, argv);
  if (!a.has_value()) return 2;
  if (a->command == "run") return cmd_run(*a);
  if (a->command == "bisect") return cmd_bisect(*a);
  if (a->command == "fork") return cmd_fork(*a);
  if (a->command == "gen") return cmd_gen(*a);
  if (a->command == "info") return cmd_info(*a);
  std::fprintf(stderr,
               "usage: sirius_cli {run|bisect|fork|gen|info} [--options]\n"
               "see the header of tools/sirius_cli.cpp for details\n");
  return a->command.empty() ? 1 : 2;
}
