#include "telemetry/flight_recorder.hpp"

#include <cstdio>

#include "telemetry/trace.hpp"

namespace sirius::telemetry {

void FlightRecorder::configure(std::int32_t nodes, std::int32_t depth) {
  if (nodes <= 0 || depth <= 0) return;
  depth_ = depth;
  rings_.assign(static_cast<std::size_t>(nodes), {});
  // Pre-size every ring to its fixed depth so the record() fill phase —
  // reached per cell through the cell-event hook — never reallocates.
  for (auto& ring : rings_) ring.reserve(static_cast<std::size_t>(depth_));
  next_.assign(static_cast<std::size_t>(nodes), 0);
  seen_.assign(static_cast<std::size_t>(nodes), 0);
}

void FlightRecorder::record(const CellEventRecord& r) {
  if (depth_ <= 0 || r.node < 0 ||
      static_cast<std::size_t>(r.node) >= rings_.size()) {
    return;
  }
  auto& ring = rings_[static_cast<std::size_t>(r.node)];
  auto& cursor = next_[static_cast<std::size_t>(r.node)];
  if (ring.size() < static_cast<std::size_t>(depth_)) {
    ring.push_back(r);
  } else {
    ring[cursor] = r;
  }
  cursor = (cursor + 1) % static_cast<std::size_t>(depth_);
  ++seen_[static_cast<std::size_t>(r.node)];
}

std::string FlightRecorder::dump() const {
  std::string out = "flight recorder: last " + std::to_string(depth_) +
                    " events per node\n";
  char line[160];
  for (std::size_t n = 0; n < rings_.size(); ++n) {
    const auto& ring = rings_[n];
    if (ring.empty()) continue;
    std::snprintf(line, sizeof line, "node %zu (%lld events total):\n", n,
                  static_cast<long long>(seen_[n]));
    out += line;
    // Oldest first: the cursor points at the oldest entry once the ring
    // has wrapped.
    const std::size_t start = ring.size() < static_cast<std::size_t>(depth_)
                                  ? 0
                                  : next_[n];
    for (std::size_t k = 0; k < ring.size(); ++k) {
      const CellEventRecord& r = ring[(start + k) % ring.size()];
      std::snprintf(line, sizeof line,
                    "  %12.3f us  %-13s flow=%lld seq=%d peer=%d dst=%d\n",
                    r.at.to_us(), cell_event_name(r.event),
                    static_cast<long long>(r.flow), r.seq, r.peer, r.dst);
      out += line;
    }
  }
  return out;
}

void FlightRecorder::on_invariant_failure() {
  if (depth_ <= 0 || dumping_) return;
  dumping_ = true;
  last_dump_ = dump();
  ++dumps_;
  std::fprintf(stderr, "%s", last_dump_.c_str());
  dumping_ = false;
}

}  // namespace sirius::telemetry
