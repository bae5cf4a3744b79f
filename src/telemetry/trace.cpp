#include "telemetry/trace.hpp"

#include <sstream>

#include "common/atomic_file.hpp"

#include "telemetry/json.hpp"

namespace sirius::telemetry {

const char* cell_event_name(CellEvent e) {
  switch (e) {
    case CellEvent::kInject: return "inject";
    case CellEvent::kRequest: return "request";
    case CellEvent::kGrant: return "grant";
    case CellEvent::kFirstHopTx: return "first_hop_tx";
    case CellEvent::kRelayEnqueue: return "relay_enqueue";
    case CellEvent::kRelayDequeue: return "relay_dequeue";
    case CellEvent::kDeliver: return "deliver";
    case CellEvent::kDrop: return "drop";
    case CellEvent::kRetransmit: return "retransmit";
  }
  return "unknown";
}

void CellTracer::configure(std::int64_t flow_sample, std::int64_t max_events) {
  enabled_ = true;
  sample_ = flow_sample < 1 ? 1 : flow_sample;
  cap_ = max_events < 1 ? 1 : max_events;
  // Pre-size to the cap so record() — reached per cell through the
  // cell-event hook — never reallocates while tracing is on.
  events_.reserve(static_cast<std::size_t>(cap_));
}

void CellTracer::record(const CellEventRecord& r) {
  if (!enabled_) return;
  if (static_cast<std::int64_t>(events_.size()) >= cap_) {
    ++dropped_;
    return;
  }
  events_.push_back(r);
}

bool CellTracer::write_chrome_json(const std::string& path,
                                   std::int32_t nodes) const {
  std::ostringstream out;
  std::vector<bool> seen(nodes > 0 ? static_cast<std::size_t>(nodes) : 0,
                         false);
  for (const CellEventRecord& r : events_) {
    if (r.node >= 0 && static_cast<std::size_t>(r.node) < seen.size()) {
      seen[static_cast<std::size_t>(r.node)] = true;
    }
  }

  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  bool first = true;
  const auto emit = [&out, &first](const std::string& obj) {
    out << (first ? "\n" : ",\n") << obj;
    first = false;
  };

  // Per-node tracks: one Perfetto "process" per rack.
  for (std::size_t n = 0; n < seen.size(); ++n) {
    if (!seen[n]) continue;
    JsonObject args;
    args.add("name", "node " + std::to_string(n));
    JsonObject m;
    m.add("ph", "M")
        .add("name", "process_name")
        .add_int("pid", static_cast<std::int64_t>(n))
        .add_int("tid", 0)
        .add_raw("args", args.str());
    emit(m.str());
  }

  for (const CellEventRecord& r : events_) {
    JsonObject args;
    if (r.flow >= 0) args.add_int("flow", r.flow);
    if (r.seq >= 0) args.add_int("seq", r.seq);
    if (r.peer != kInvalidNode) args.add_int("peer", r.peer);
    if (r.dst != kInvalidNode) args.add_int("dst", r.dst);
    JsonObject e;
    e.add("name", cell_event_name(r.event))
        .add("ph", "i")
        .add("s", "t")
        .add_num("ts", r.at.to_us())
        .add_int("pid", r.node)
        .add_int("tid", 0)
        .add("cat", "cell")
        .add_raw("args", args.str());
    emit(e.str());
  }
  out << "\n], \"otherData\": {\"dropped_events\": " << dropped_ << "}}\n";
  // Crash-safe: temp file + atomic rename, like every other artifact.
  return write_file_atomic(path, out.str());
}

}  // namespace sirius::telemetry
