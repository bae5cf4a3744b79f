#include "check/auditors.hpp"

#include <cmath>
#include <utility>

#include "common/invariant.hpp"

namespace sirius::check {

void AuditorRegistry::register_auditor(std::string name,
                                       std::function<void()> fn) {
  auditors_.push_back(Entry{std::move(name), std::move(fn)});
}

void AuditorRegistry::run_all() const {
  for (const Entry& e : auditors_) e.fn();
}

std::vector<std::string> AuditorRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(auditors_.size());
  for (const Entry& e : auditors_) out.push_back(e.name);
  return out;
}

void audit_destination_permutation(const std::vector<NodeId>& dsts,
                                   const char* what,
                                   std::vector<std::uint8_t>& seen) {
  // Destinations are small non-negative ids; a seen-bitmap keeps this O(n).
  NodeId max_id = -1;
  for (const NodeId d : dsts) max_id = d > max_id ? d : max_id;
  seen.assign(static_cast<std::size_t>(max_id + 1), 0);
  for (const NodeId d : dsts) {
    if (d == kInvalidNode) continue;  // idle uplink (schedule padding)
    SIRIUS_INVARIANT(d >= 0, "%s: negative destination %d", what, d);
    if (d < 0) continue;
    auto& s = seen[static_cast<std::size_t>(d)];
    SIRIUS_INVARIANT(s == 0,
                     "%s: destination %d receives from two senders in one "
                     "slot (schedule is not a permutation)",
                     what, d);
    s = 1;
  }
}

void audit_cell_conservation(std::int64_t injected, std::int64_t delivered,
                             std::int64_t queued, std::int64_t in_flight,
                             std::int64_t dropped) {
  SIRIUS_INVARIANT(injected >= 0 && delivered >= 0 && queued >= 0 &&
                       in_flight >= 0 && dropped >= 0,
                   "negative cell ledger: injected %lld delivered %lld "
                   "queued %lld in-flight %lld dropped %lld",
                   static_cast<long long>(injected),
                   static_cast<long long>(delivered),
                   static_cast<long long>(queued),
                   static_cast<long long>(in_flight),
                   static_cast<long long>(dropped));
  SIRIUS_INVARIANT(
      injected == delivered + queued + in_flight + dropped,
      "cell conservation broken: injected %lld != delivered %lld + "
      "queued %lld + in-flight %lld + dropped %lld",
      static_cast<long long>(injected), static_cast<long long>(delivered),
      static_cast<long long>(queued), static_cast<long long>(in_flight),
      static_cast<long long>(dropped));
}

void audit_in_order_release(const std::vector<std::int32_t>& released) {
  for (std::size_t i = 1; i < released.size(); ++i) {
    SIRIUS_INVARIANT(released[i] > released[i - 1],
                     "reorder: released seq %d after seq %d (out of order)",
                     released[i], released[i - 1]);
  }
}

void audit_clock_offsets(const std::vector<double>& offsets_ps,
                         double bound_ps) {
  double lo = 0.0;
  double hi = 0.0;
  bool first = true;
  for (const double o : offsets_ps) {
    SIRIUS_INVARIANT(std::isfinite(o), "clock offset %g ps is not finite", o);
    if (!std::isfinite(o)) continue;
    lo = first ? o : (o < lo ? o : lo);
    hi = first ? o : (o > hi ? o : hi);
    first = false;
  }
  SIRIUS_INVARIANT(hi - lo <= bound_ps,
                   "clocks diverged after convergence: spread %g ps exceeds "
                   "the %g ps bound",
                   hi - lo, bound_ps);
}

}  // namespace sirius::check
