// Per-flow reorder buffer at the receiver (§4.2 "Cell reordering").
//
// Cells of one flow take different intermediate hops and can arrive out of
// order. The receiver buffers out-of-order cells and releases the in-order
// prefix to the application. Because congestion control bounds intermediate
// queuing to Q cells, the reordering window — and hence the buffer — stays
// small (Fig. 10d).
//
// The pending set is a bitmap pre-sized to the flow at construction, so
// on_arrival — on the SIRIUS_HOT delivery path — never allocates: insert,
// lookup, and the release scan are word operations over a fixed vector.
#pragma once

#include <cstdint>
#include <vector>

#include "ckpt/io.hpp"
#include "common/hot_path.hpp"
#include "common/units.hpp"

namespace sirius::node {

class ReorderBuffer {
 public:
  explicit ReorderBuffer(std::int64_t total_cells)
      : total_cells_(total_cells),
        pending_(total_cells > 0
                     ? static_cast<std::size_t>((total_cells + 63) / 64)
                     : 0,
                 0) {}

  /// Records arrival of cell `seq` carrying `bytes` application bytes.
  /// Returns the number of cells newly released in order (>= 1 exactly when
  /// `seq` extended the in-order prefix).
  SIRIUS_HOT std::int64_t on_arrival(std::int32_t seq, std::int32_t bytes);

  [[nodiscard]] bool complete() const { return next_expected_ >= total_cells_; }
  /// Has cell `seq` already arrived (released in order or still buffered)?
  /// The §4.5 retransmission path uses this to cancel timeouts whose cell
  /// made it after all, and to discard spurious duplicates on delivery.
  [[nodiscard]] bool received(std::int32_t seq) const {
    return seq < next_expected_ || pending_bit(seq);
  }
  [[nodiscard]] std::int64_t total_cells() const { return total_cells_; }
  [[nodiscard]] std::int64_t next_expected() const { return next_expected_; }
  [[nodiscard]] std::int64_t buffered_cells() const { return buffered_cells_; }
  /// Peak data ever held out of order.
  [[nodiscard]] DataSize peak_buffered() const {
    return DataSize::bytes(peak_bytes_);
  }

  /// Checkpoint: full state incl. the pending bitmap, so a restored
  /// receiver releases exactly the same in-order prefixes.
  void serialize(ckpt::Writer& w) const;
  bool restore(ckpt::Reader& r);

 private:
  [[nodiscard]] bool pending_bit(std::int32_t seq) const {
    if (seq < 0 || seq >= total_cells_) return false;
    const auto s = static_cast<std::size_t>(seq);
    return (pending_[s / 64] >> (s % 64) & 1u) != 0;
  }

  std::int64_t total_cells_;
  std::int64_t next_expected_ = 0;
  // Out-of-order seqs beyond the prefix, one bit per cell of the flow.
  std::vector<std::uint64_t> pending_;
  std::int64_t buffered_cells_ = 0;
  std::int64_t buffered_bytes_ = 0;
  std::int64_t peak_bytes_ = 0;
};

}  // namespace sirius::node
