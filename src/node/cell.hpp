// The fixed-size transmission unit of the Sirius data plane (§4.2).
//
// All optical transmissions are fixed-size "cells" (562 B total by default,
// filling the 90 ns data portion of a 100 ns slot at 50 Gbps). A flow is
// segmented into cells at the source; the last cell may be padded, which is
// exactly the overhead Fig. 13 quantifies for small flows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "ckpt/io.hpp"
#include "common/units.hpp"
#include "workload/flow.hpp"

namespace sirius::node {

struct Cell {
  FlowId flow = 0;
  std::int32_t seq = 0;          ///< 0-based cell index within the flow
  NodeId dst_node = 0;           ///< destination rack/node
  std::int32_t dst_server = 0;   ///< destination server (global index)
  std::int32_t payload_bytes = 0;///< application bytes carried (<= capacity)
  std::int32_t retries = 0;      ///< §4.5 retransmission attempts so far
};

/// Checkpoint codec for one Cell; kCellBytes is its encoded size, for
/// Reader::count bounds.
inline constexpr std::size_t kCellBytes = 8 + 5 * 4;

inline void put_cell(ckpt::Writer& w, const Cell& c) {
  w.i64(c.flow);
  w.i32(c.seq);
  w.i32(c.dst_node);
  w.i32(c.dst_server);
  w.i32(c.payload_bytes);
  w.i32(c.retries);
}

inline Cell get_cell(ckpt::Reader& r) {
  Cell c;
  c.flow = r.i64();
  c.seq = r.i32();
  c.dst_node = r.i32();
  c.dst_server = r.i32();
  c.payload_bytes = r.i32();
  c.retries = r.i32();
  return c;
}

/// Number of cells needed for `size` bytes with `capacity` bytes per cell.
[[nodiscard]] inline std::int64_t cells_for(DataSize size, DataSize capacity) {
  return div_ceil(size, capacity);
}

/// Whether `c` can be a cell of one of `flows` (a prefix of a workload's
/// flows, indexed by id) cut `capacity` bytes at a time: the flow is there,
/// the seq is below its cell count, and the cell heads to its destination
/// server. Restore checks every cell it reads this way, since delivery
/// indexes per-flow and per-server state with them.
[[nodiscard]] inline bool in_workload(const Cell& c,
                                      std::span<const workload::Flow> flows,
                                      DataSize capacity) {
  if (c.flow < 0 || static_cast<std::uint64_t>(c.flow) >= flows.size()) {
    return false;
  }
  const workload::Flow& f = flows[static_cast<std::size_t>(c.flow)];
  return c.seq >= 0 && c.seq < cells_for(f.size, capacity) &&
         c.dst_server == f.dst_server;
}

}  // namespace sirius::node
