#include "telemetry/profile.hpp"

#include <chrono>
#include <cstdio>

#include "telemetry/json.hpp"

namespace sirius::telemetry {

const char* prof_scope_name(ProfScope s) {
  switch (s) {
    case ProfScope::kSlotLoop: return "slot-loop";
    case ProfScope::kEpochCc: return "epoch-cc";
    case ProfScope::kTransmit: return "transmit";
    case ProfScope::kLandInject: return "land+inject";
    case ProfScope::kFailover: return "failover";
    case ProfScope::kAudit: return "audit";
    case ProfScope::kEsnRates: return "esn-rates";
    case ProfScope::kDeliver: return "deliver";
    case ProfScope::kStats: return "stats";
    case ProfScope::kCheckpoint: return "checkpoint";
    case ProfScope::kScopeCount: break;
  }
  return "unknown";
}

std::uint64_t Profiler::now_nanos() {
  // A sanctioned wall-clock read in src/ (see the file comment in
  // profile.hpp and the sirius-lint no-wallclock carve-out): host-side
  // profiling only, never simulated time.
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::int32_t Profiler::find_or_add_child(std::int32_t parent, ProfScope s) {
  for (std::int32_t c = tree_[static_cast<std::size_t>(parent)].first_child;
       c >= 0; c = tree_[static_cast<std::size_t>(c)].next_sibling) {
    if (tree_[static_cast<std::size_t>(c)].scope == s) return c;
  }
  // First visit of this (parent, scope) pair. The tree is bounded by
  // kProfScopeCount^depth distinct paths (in practice a dozen nodes), so
  // growth stops after the first slot touches every path; steady state is
  // allocation-free.
  tree_.push_back(TreeNode{});
  const std::int32_t idx = static_cast<std::int32_t>(tree_.size()) - 1;
  TreeNode& n = tree_.back();
  n.scope = s;
  n.parent = parent;
  TreeNode& p = tree_[static_cast<std::size_t>(parent)];
  if (p.first_child < 0) {
    p.first_child = idx;
  } else {
    std::int32_t c = p.first_child;
    while (tree_[static_cast<std::size_t>(c)].next_sibling >= 0) {
      c = tree_[static_cast<std::size_t>(c)].next_sibling;
    }
    tree_[static_cast<std::size_t>(c)].next_sibling = idx;
  }
  return idx;
}

void Profiler::enter(ProfScope s) {
  if (!enabled_) return;
  if (tree_.empty()) {
    tree_.push_back(TreeNode{});  // synthetic root, scope == kScopeCount
    cur_ = 0;
  }
  cur_ = find_or_add_child(cur_ < 0 ? 0 : cur_, s);
}

void Profiler::exit_scope(std::uint64_t nanos) {
  if (cur_ <= 0) return;  // no open scope (spurious exit): ignore
  TreeNode& n = tree_[static_cast<std::size_t>(cur_)];
  ++n.calls;
  n.total_nanos += nanos;
  if (nanos > n.max_nanos) n.max_nanos = nanos;
  if (n.parent > 0) {
    tree_[static_cast<std::size_t>(n.parent)].child_nanos += nanos;
  }
  cur_ = n.parent;
}

Profiler::ScopeStats Profiler::stats(ProfScope s) const {
  ScopeStats st;
  for (const TreeNode& n : tree_) {
    if (n.scope != s) continue;
    st.calls += n.calls;
    st.total_nanos += n.total_nanos;
    if (n.max_nanos > st.max_nanos) st.max_nanos = n.max_nanos;
  }
  return st;
}

namespace {

void append_tree_rows(const std::vector<Profiler::TreeNode>& tree,
                      std::int32_t node, int depth, std::string* out) {
  const Profiler::TreeNode& n = tree[static_cast<std::size_t>(node)];
  char line[192];
  char name[64];
  std::snprintf(name, sizeof name, "%*s%s", depth * 2, "",
                prof_scope_name(n.scope));
  std::snprintf(line, sizeof line,
                "  %-21s %12llu %12.3f %12.3f %8.1f%%\n", name,
                static_cast<unsigned long long>(n.calls),
                static_cast<double>(n.total_nanos) / 1e6,
                static_cast<double>(n.self_nanos()) / 1e6,
                n.total_nanos == 0
                    ? 100.0
                    : 100.0 * static_cast<double>(n.self_nanos()) /
                          static_cast<double>(n.total_nanos));
  *out += line;
  for (std::int32_t c = n.first_child; c >= 0;
       c = tree[static_cast<std::size_t>(c)].next_sibling) {
    append_tree_rows(tree, c, depth + 1, out);
  }
}

void append_flame_node(const std::vector<Profiler::TreeNode>& tree,
                       std::int32_t node, std::string* out) {
  const Profiler::TreeNode& n = tree[static_cast<std::size_t>(node)];
  // The synthetic root is never exited, so its total is the sum of its
  // children (the outermost profiled scopes) and its self time is zero.
  std::uint64_t total = n.total_nanos;
  std::uint64_t self = n.self_nanos();
  if (node == 0) {
    total = 0;
    for (std::int32_t c = n.first_child; c >= 0;
         c = tree[static_cast<std::size_t>(c)].next_sibling) {
      total += tree[static_cast<std::size_t>(c)].total_nanos;
    }
    self = 0;
  }
  JsonObject o;
  o.add("name", node == 0 ? "root" : prof_scope_name(n.scope));
  o.add_int("calls", static_cast<std::int64_t>(n.calls));
  o.add_int("total_ns", static_cast<std::int64_t>(total));
  o.add_int("self_ns", static_cast<std::int64_t>(self));
  o.add_int("max_ns", static_cast<std::int64_t>(n.max_nanos));
  std::string children = "[";
  bool first = true;
  for (std::int32_t c = n.first_child; c >= 0;
       c = tree[static_cast<std::size_t>(c)].next_sibling) {
    if (!first) children += ",";
    first = false;
    append_flame_node(tree, c, &children);
  }
  children += "]";
  o.add_raw("children", children);
  *out += o.str();
}

}  // namespace

std::string Profiler::table() const {
  std::string rows;
  char line[160];
  for (std::size_t i = 0; i < kProfScopeCount; ++i) {
    const ScopeStats st = stats(static_cast<ProfScope>(i));
    if (st.calls == 0) continue;
    const double total_ms = static_cast<double>(st.total_nanos) / 1e6;
    const double mean_us = static_cast<double>(st.total_nanos) /
                           (1e3 * static_cast<double>(st.calls));
    const double max_us = static_cast<double>(st.max_nanos) / 1e3;
    std::snprintf(line, sizeof line,
                  "  %-15s %10llu %14.3f %10.3f %10.3f\n",
                  prof_scope_name(static_cast<ProfScope>(i)),
                  static_cast<unsigned long long>(st.calls), total_ms,
                  mean_us, max_us);
    rows += line;
  }
  if (rows.empty()) return "";

  std::string out =
      "profile (host wall clock)\n"
      "  scope            calls       total_ms    mean_us     max_us\n" +
      rows;

  // Hierarchical attribution, when any scope actually nested. `self%`
  // near 100 means the scope's cost is its own body; low self% means the
  // time lives in the children below it.
  if (!tree_.empty() && tree_[0].first_child >= 0) {
    out +=
        "attribution (self = total minus profiled children)\n"
        "  scope                        calls     total_ms      self_ms"
        "    self%\n";
    for (std::int32_t c = tree_[0].first_child; c >= 0;
         c = tree_[static_cast<std::size_t>(c)].next_sibling) {
      append_tree_rows(tree_, c, 0, &out);
    }
  }
  return out;
}

std::string Profiler::flame_json() const {
  if (tree_.empty()) {
    return "{\"name\":\"root\",\"calls\":0,\"total_ns\":0,\"self_ns\":0,"
           "\"max_ns\":0,\"children\":[]}";
  }
  std::string out;
  append_flame_node(tree_, 0, &out);
  return out;
}

}  // namespace sirius::telemetry
