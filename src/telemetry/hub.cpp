#include "telemetry/hub.hpp"

#include <utility>

#include "common/atomic_file.hpp"
#include "common/invariant.hpp"

namespace sirius::telemetry {

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

Hub::Hub(TelemetryConfig cfg) : cfg_(std::move(cfg)) {
  if (!cfg_.metrics_out.empty()) {
    sampler_.configure(&metrics_, cfg_.metrics_every);
  }
  if (!cfg_.trace_out.empty()) {
    tracer_.configure(cfg_.trace_flow_sample, cfg_.trace_max_events);
  }
  // A flame export needs the scopes live, so it implies `profile`.
  profiler_.enable(cfg_.profile || !cfg_.flame_out.empty());
}

Hub::~Hub() {
  if (hook_installed_) {
    check::InvariantContext::instance().set_failure_hook(nullptr);
  }
}

void Hub::attach_nodes(std::int32_t nodes) {
  nodes_ = nodes;
  if (cfg_.flight_recorder_depth > 0 && !recorder_.enabled()) {
    recorder_.configure(nodes, cfg_.flight_recorder_depth);
    // The hook is process-global; the latest attached hub wins (one hub
    // per run is the documented model).
    check::InvariantContext::instance().set_failure_hook(
        [this] { recorder_.on_invariant_failure(); });
    hook_installed_ = true;
  }
}

std::vector<Hub::Artifact> Hub::finish() {
  std::vector<Artifact> out;
  if (sampler_.enabled() && !cfg_.metrics_out.empty()) {
    Artifact a{"metrics", cfg_.metrics_out, false};
    a.ok = ends_with(cfg_.metrics_out, ".csv")
               ? sampler_.write_csv(cfg_.metrics_out)
               : sampler_.write_jsonl(cfg_.metrics_out);
    out.push_back(std::move(a));
  }
  if (tracer_.enabled() && !cfg_.trace_out.empty()) {
    Artifact a{"trace", cfg_.trace_out, false};
    a.ok = tracer_.write_chrome_json(cfg_.trace_out, nodes_);
    out.push_back(std::move(a));
  }
  if (!cfg_.flame_out.empty()) {
    Artifact a{"flame", cfg_.flame_out, false};
    a.ok = write_file_atomic(cfg_.flame_out, profiler_.flame_json() + "\n");
    out.push_back(std::move(a));
  }
  return out;
}

}  // namespace sirius::telemetry
