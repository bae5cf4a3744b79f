#include "esn/fluid_sim.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>

namespace sirius::esn {
namespace {

constexpr double kEpsilonBits = 1.0;  // flows below this are complete

}  // namespace

EsnFluidSim::EsnFluidSim(EsnConfig cfg, const workload::Workload& workload)
    : cfg_(cfg),
      workload_(workload),
      goodput_(cfg.servers(), cfg.server_rate),
      measure_end_(workload.last_arrival()) {
  assert(workload_.servers == cfg_.servers() &&
         "workload generated for a different server count");
  hub_ = cfg_.telemetry;
  if (hub_ == nullptr) {
    own_hub_ = std::make_unique<telemetry::Hub>();
    hub_ = own_hub_.get();
  }
  hub_->attach_nodes(cfg_.racks);
  telemetry::MetricsRegistry& m = hub_->metrics();
  c_completed_ = &m.counter("esn.flows_completed");
  c_recomputes_ = &m.counter("esn.rate_recomputes");
  g_active_ = &m.gauge("esn.active_flows");
  const std::int32_t s = cfg_.servers();
  const std::int32_t r = cfg_.racks;
  capacity_.assign(static_cast<std::size_t>(2 * s + 2 * r), 0.0);
  const double nic = static_cast<double>(cfg_.server_rate.bits_per_sec());
  for (std::int32_t i = 0; i < 2 * s; ++i) {
    capacity_[static_cast<std::size_t>(i)] = nic;
  }
  const double rack_cap =
      nic * cfg_.servers_per_rack / cfg_.oversubscription;
  for (std::int32_t i = 2 * s; i < 2 * s + 2 * r; ++i) {
    capacity_[static_cast<std::size_t>(i)] = rack_cap;
  }
}

std::int32_t EsnFluidSim::src_constraint(const workload::Flow& f) const {
  return f.src_server;
}
std::int32_t EsnFluidSim::dst_constraint(const workload::Flow& f) const {
  return cfg_.servers() + f.dst_server;
}
std::int32_t EsnFluidSim::rack_up_constraint(const workload::Flow& f) const {
  return 2 * cfg_.servers() + f.src_server / cfg_.servers_per_rack;
}
std::int32_t EsnFluidSim::rack_down_constraint(const workload::Flow& f) const {
  return 2 * cfg_.servers() + cfg_.racks +
         f.dst_server / cfg_.servers_per_rack;
}

void EsnFluidSim::recompute_rates() {
  // Exact max-min fair allocation by progressive filling with a lazy heap:
  // repeatedly saturate the constraint with the smallest fair share and
  // freeze its flows at that share.
  std::vector<double>& cap = scratch_cap_;
  std::vector<std::int32_t>& cnt = scratch_cnt_;
  std::vector<std::vector<std::int32_t>>& members = scratch_members_;
  std::vector<std::int32_t>& touched = scratch_touched_;

  if (cap.size() < capacity_.size()) {
    cap.resize(capacity_.size());
    cnt.assign(capacity_.size(), 0);
    members.resize(capacity_.size());
  }
  for (const std::int32_t c : touched) {
    cnt[static_cast<std::size_t>(c)] = 0;
    members[static_cast<std::size_t>(c)].clear();
  }
  touched.clear();

  for (std::size_t i = 0; i < active_.size(); ++i) {
    ActiveFlow& f = active_[i];
    f.frozen = false;
    for (std::int32_t k = 0; k < f.n_constraints; ++k) {
      const auto c = static_cast<std::size_t>(f.constraints[k]);
      if (cnt[c] == 0) {
        touched.push_back(f.constraints[k]);
        cap[c] = capacity_[c];
      }
      ++cnt[c];
      members[c].push_back(static_cast<std::int32_t>(i));
    }
  }

  using HeapItem = std::pair<double, std::int32_t>;  // (fair share, c)
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  for (const std::int32_t c : touched) {
    const auto ci = static_cast<std::size_t>(c);
    heap.emplace(cap[ci] / cnt[ci], c);
  }

  std::size_t frozen = 0;
  while (frozen < active_.size() && !heap.empty()) {
    const auto [fair, c] = heap.top();
    heap.pop();
    const auto ci = static_cast<std::size_t>(c);
    if (cnt[ci] == 0) continue;
    const double current_fair = cap[ci] / cnt[ci];
    if (current_fair > fair * (1.0 + 1e-12)) {
      heap.emplace(current_fair, c);  // stale entry; re-key
      continue;
    }
    for (const std::int32_t fi : members[ci]) {
      ActiveFlow& f = active_[static_cast<std::size_t>(fi)];
      if (f.frozen) continue;
      f.frozen = true;
      f.rate_bps = current_fair;
      ++frozen;
      for (std::int32_t k = 0; k < f.n_constraints; ++k) {
        const auto c2 = static_cast<std::size_t>(f.constraints[k]);
        cap[c2] -= current_fair;
        --cnt[c2];
        if (c2 != ci && cnt[c2] > 0) {
          heap.emplace(std::max(cap[c2], 0.0) / cnt[c2], f.constraints[k]);
        }
      }
    }
    cnt[ci] = 0;
  }
}

EsnSimResult EsnFluidSim::run() {
  std::size_t next_arrival = 0;
  double now_sec = 0.0;
  const double measure_end_sec = measure_end_.to_sec();

  while (next_arrival < workload_.flows.size() || !active_.empty()) {
    // Next event: earliest of next arrival and earliest completion.
    double t_event = 1e300;
    bool is_arrival = false;
    if (next_arrival < workload_.flows.size()) {
      t_event = workload_.flows[next_arrival].arrival.to_sec();
      is_arrival = true;
    }
    for (const ActiveFlow& f : active_) {
      if (f.rate_bps <= 0.0) continue;
      const double done = now_sec + f.remaining_bits / f.rate_bps;
      if (done < t_event) {
        t_event = done;
        is_arrival = false;
      }
    }
    assert(t_event < 1e299 && "stuck: no arrivals and no progressing flows");
    if (is_arrival) {
      t_event = workload_.flows[next_arrival].arrival.to_sec();
    }

    // Advance all active flows to t_event, crediting goodput within the
    // measurement window.
    const double dt = t_event - now_sec;
    if (dt > 0.0) {
      const double window = std::clamp(measure_end_sec - now_sec, 0.0, dt);
      for (ActiveFlow& f : active_) {
        const double bits = f.rate_bps * dt;
        f.remaining_bits -= bits;
        if (window > 0.0) {
          goodput_.deliver(DataSize::bytes(static_cast<std::int64_t>(
              f.rate_bps * window / 8.0)));
        }
      }
      now_sec = t_event;
    } else {
      now_sec = std::max(now_sec, t_event);
    }

    // Retire completed flows.
    for (std::size_t i = 0; i < active_.size();) {
      if (active_[i].remaining_bits <= kEpsilonBits) {
        const auto& wf = workload_.flows[active_[i].wl_index];
        const Time fct =
            Time::from_sec(now_sec) - wf.arrival + cfg_.base_latency;
        fct_.record(wf.size, fct);
        c_completed_->inc();
        active_[i] = active_.back();
        active_.pop_back();
      } else {
        ++i;
      }
    }

    // Admit all arrivals at this instant.
    while (next_arrival < workload_.flows.size() &&
           workload_.flows[next_arrival].arrival.to_sec() <= now_sec + 1e-15) {
      const workload::Flow& wf = workload_.flows[next_arrival];
      ActiveFlow f;
      f.wl_index = next_arrival;
      f.remaining_bits = static_cast<double>(wf.size.in_bits());
      f.n_constraints = 0;
      f.constraints[f.n_constraints++] = src_constraint(wf);
      f.constraints[f.n_constraints++] = dst_constraint(wf);
      if (cfg_.oversubscription > 1 &&
          wf.src_server / cfg_.servers_per_rack !=
              wf.dst_server / cfg_.servers_per_rack) {
        f.constraints[f.n_constraints++] = rack_up_constraint(wf);
        f.constraints[f.n_constraints++] = rack_down_constraint(wf);
      }
      f.frozen = false;
      active_.push_back(f);
      ++next_arrival;
    }

    {
      telemetry::ScopedTimer rates_timer(hub_->profiler(),
                                         telemetry::ProfScope::kEsnRates);
      recompute_rates();
    }
    c_recomputes_->inc();
    if (hub_->metrics_enabled()) {
      g_active_->set(static_cast<double>(active_.size()));
      hub_->maybe_sample(Time::from_sec(now_sec));
    }
  }

  if (hub_->metrics_enabled()) {
    g_active_->set(static_cast<double>(active_.size()));
    hub_->sample(Time::from_sec(now_sec));
  }

  EsnSimResult r;
  r.fct = fct_.summarize();
  r.goodput_normalized = goodput_.normalized(measure_end_);
  r.completed_flows = r.fct.completed_flows;
  r.sim_end = Time::from_sec(now_sec);
  return r;
}

}  // namespace sirius::esn
