// Per-flow reorder buffer at the receiver (§4.2 "Cell reordering").
//
// Cells of one flow take different intermediate hops and can arrive out of
// order. The receiver buffers out-of-order cells and releases the in-order
// prefix to the application. Because congestion control bounds intermediate
// queuing to Q cells, the reordering window — and hence the buffer — stays
// small (Fig. 10d).
//
// The pending set is a bitmap of words_for(total_cells) words, one bit per
// cell of the flow, that the caller owns and passes to every call that
// reads or writes it. A receiver with many flows keeps all their bitmaps
// in one word array (SiriusSim does), so a flow costs no heap object of
// its own; on_arrival — on the per-cell delivery path — never allocates:
// insert, lookup, and the release scan are word operations over that span.
#pragma once

#include <cstdint>
#include <span>

#include "ckpt/io.hpp"
#include "common/units.hpp"

namespace sirius::node {

class ReorderBuffer {
 public:
  explicit ReorderBuffer(std::int64_t total_cells = 0)
      : total_cells_(total_cells) {}

  /// Bitmap words a buffer over `total_cells` cells needs (written so that
  /// no count read from a checkpoint can overflow it).
  [[nodiscard]] static std::size_t words_for(std::int64_t total_cells) {
    if (total_cells <= 0) return 0;
    return static_cast<std::size_t>(total_cells / 64 +
                                    (total_cells % 64 != 0 ? 1 : 0));
  }

  /// Records arrival of cell `seq` carrying `bytes` application bytes;
  /// `pending` is this buffer's bitmap (all zero for a fresh buffer).
  /// Returns the number of cells newly released in order (>= 1 exactly when
  /// `seq` extended the in-order prefix).
  std::int64_t on_arrival(std::span<std::uint64_t> pending, std::int32_t seq,
                          std::int32_t bytes);

  [[nodiscard]] bool complete() const { return next_expected_ >= total_cells_; }
  /// Has cell `seq` already arrived (released in order or still buffered)?
  /// The §4.5 retransmission path uses this to cancel timeouts whose cell
  /// made it after all, and to discard spurious duplicates on delivery.
  [[nodiscard]] bool received(std::span<const std::uint64_t> pending,
                              std::int32_t seq) const {
    return seq < next_expected_ || pending_bit(pending, seq);
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
  void serialize(ckpt::Writer& w,
                 std::span<const std::uint64_t> pending) const;
  /// Restores a buffer of words_for(total_cells) == pending.size() words
  /// into `pending`; any other size is rejected.
  bool restore(ckpt::Reader& r, std::span<std::uint64_t> pending);

 private:
  [[nodiscard]] bool pending_bit(std::span<const std::uint64_t> pending,
                                 std::int32_t seq) const {
    if (seq < 0 || seq >= total_cells_) return false;
    const auto s = static_cast<std::size_t>(seq);
    return (pending[s / 64] >> (s % 64) & 1u) != 0;
  }

  std::int64_t total_cells_;
  std::int64_t next_expected_ = 0;
  std::int64_t buffered_cells_ = 0;
  std::int64_t buffered_bytes_ = 0;
  std::int64_t peak_bytes_ = 0;
};

}  // namespace sirius::node
