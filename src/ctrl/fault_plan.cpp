#include "ctrl/fault_plan.hpp"

#include <algorithm>
#include <cstdio>

#include "common/config.hpp"

namespace sirius::ctrl {

namespace {

std::string fmt_error(const char* what, const std::string& spec) {
  return std::string(what) + " in \"" + spec + "\"";
}

/// Splits a comma-separated list into trimmed, non-empty pieces.
std::vector<std::string> split_specs(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    std::size_t a = pos;
    std::size_t b = end;
    while (a < b && s[a] == ' ') ++a;
    while (b > a && s[b - 1] == ' ') --b;
    if (b > a) out.push_back(s.substr(a, b - a));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

void FaultPlan::fail_rack(NodeId rack, Time at, Time recover_at) {
  rack_faults_.push_back(RackFault{rack, at, recover_at});
}

void FaultPlan::grey_link(NodeId src, NodeId dst, double loss, Time from,
                          Time until) {
  grey_links_.push_back(GreyLink{src, dst, loss, from, until});
}

bool FaultPlan::rack_down(NodeId rack, Time t) const {
  for (const RackFault& f : rack_faults_) {
    if (f.rack == rack && t >= f.at && t < f.recover_at) return true;
  }
  return false;
}

double FaultPlan::link_loss(NodeId src, NodeId dst, Time t) const {
  double pass = 1.0;
  for (const GreyLink& g : grey_links_) {
    if (g.src == src && g.dst == dst && t >= g.from && t < g.until) {
      pass *= 1.0 - g.loss;
    }
  }
  return 1.0 - pass;
}

bool FaultPlan::link_ever_grey(NodeId src, NodeId dst) const {
  for (const GreyLink& g : grey_links_) {
    if (g.src == src && g.dst == dst) return true;
  }
  return false;
}

bool FaultPlan::dynamic() const {
  if (!grey_links_.empty()) return true;
  for (const RackFault& f : rack_faults_) {
    if (f.at > Time::zero() || !f.recover_at.is_infinite()) return true;
  }
  return false;
}

std::vector<NodeId> FaultPlan::down_at_start() const {
  std::vector<NodeId> out;
  for (const RackFault& f : rack_faults_) {
    if (f.at <= Time::zero() && f.recover_at > Time::zero()) {
      out.push_back(f.rack);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Time FaultPlan::first_disruption() const {
  Time first = Time::infinity();
  for (const RackFault& f : rack_faults_) {
    if (f.at > Time::zero()) first = std::min(first, f.at);
  }
  for (const GreyLink& g : grey_links_) {
    first = std::min(first, std::max(g.from, Time::zero()));
  }
  return first;
}

std::optional<std::string> FaultPlan::validate(std::int32_t racks) const {
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(racks), 0);
  for (const RackFault& f : rack_faults_) {
    if (f.rack < 0 || f.rack >= racks) {
      return "fault rack id " + std::to_string(f.rack) +
             " outside the " + std::to_string(racks) + "-rack network";
    }
    if (seen[static_cast<std::size_t>(f.rack)] != 0) {
      return "duplicate fault for rack " + std::to_string(f.rack);
    }
    seen[static_cast<std::size_t>(f.rack)] = 1;
    if (f.at < Time::zero()) {
      return "fault for rack " + std::to_string(f.rack) +
             " scheduled before t=0";
    }
    if (f.recover_at <= f.at) {
      return "rack " + std::to_string(f.rack) +
             " recovers at or before its failure";
    }
  }
  for (const GreyLink& g : grey_links_) {
    if (g.src < 0 || g.src >= racks || g.dst < 0 || g.dst >= racks) {
      return "grey link " + std::to_string(g.src) + "->" +
             std::to_string(g.dst) + " outside the " +
             std::to_string(racks) + "-rack network";
    }
    if (g.src == g.dst) {
      return "grey link " + std::to_string(g.src) + "->" +
             std::to_string(g.dst) + " loops onto itself";
    }
    if (!(g.loss > 0.0) || g.loss > 1.0) {
      return "grey link loss must be in (0, 1]";
    }
    if (g.until <= g.from || g.from < Time::zero()) {
      return "grey link window is empty or starts before t=0";
    }
  }
  return std::nullopt;
}

std::optional<std::string> FaultPlan::parse_fault(const std::string& spec) {
  for (const std::string& one : split_specs(spec)) {
    const std::size_t at = one.find('@');
    if (at == std::string::npos) {
      return fmt_error("expected RACK@T_US[+DURATION_US]", one);
    }
    const std::optional<std::int64_t> rack = parse_int(one.substr(0, at));
    if (!rack) return fmt_error("bad rack id", one);
    std::string times = one.substr(at + 1);
    const std::size_t plus = times.find('+');
    std::optional<double> recover_after_us;
    if (plus != std::string::npos) {
      recover_after_us = parse_double(times.substr(plus + 1));
      if (!recover_after_us || *recover_after_us <= 0.0) {
        return fmt_error("bad recovery duration", one);
      }
      times = times.substr(0, plus);
    }
    const std::optional<double> fail_us = parse_double(times);
    if (!fail_us || *fail_us < 0.0) {
      return fmt_error("bad failure time", one);
    }
    const Time fail_at = Time::from_ns(*fail_us * 1e3);
    const Time recover_at =
        recover_after_us ? fail_at + Time::from_ns(*recover_after_us * 1e3)
                         : Time::infinity();
    fail_rack(static_cast<NodeId>(*rack), fail_at, recover_at);
  }
  return std::nullopt;
}

std::optional<std::string> FaultPlan::parse_grey(const std::string& spec) {
  for (const std::string& one : split_specs(spec)) {
    const std::size_t arrow = one.find('>');
    const std::size_t at1 = one.find('@');
    if (arrow == std::string::npos || at1 == std::string::npos ||
        arrow > at1) {
      return fmt_error("expected SRC>DST@LOSS[@FROM_US-UNTIL_US]", one);
    }
    const std::optional<std::int64_t> src = parse_int(one.substr(0, arrow));
    const std::optional<std::int64_t> dst =
        parse_int(one.substr(arrow + 1, at1 - arrow - 1));
    if (!src || !dst) return fmt_error("bad rack id", one);
    std::string rest = one.substr(at1 + 1);
    const std::size_t at2 = rest.find('@');
    Time from = Time::zero();
    Time until = Time::infinity();
    if (at2 != std::string::npos) {
      const std::string window = rest.substr(at2 + 1);
      rest = rest.substr(0, at2);
      const std::size_t dash = window.find('-');
      std::optional<double> from_us;
      std::optional<double> until_us;
      if (dash != std::string::npos) {
        from_us = parse_double(window.substr(0, dash));
        until_us = parse_double(window.substr(dash + 1));
      }
      if (!from_us || !until_us) {
        return fmt_error("bad grey window (FROM_US-UNTIL_US)", one);
      }
      from = Time::from_ns(*from_us * 1e3);
      until = Time::from_ns(*until_us * 1e3);
    }
    const std::optional<double> loss = parse_double(rest);
    if (!loss) return fmt_error("bad loss probability", one);
    grey_link(static_cast<NodeId>(*src), static_cast<NodeId>(*dst), *loss,
              from, until);
  }
  return std::nullopt;
}

}  // namespace sirius::ctrl
