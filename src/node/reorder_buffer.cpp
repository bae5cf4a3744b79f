#include "node/reorder_buffer.hpp"

#include <algorithm>
#include <bit>

#include "common/invariant.hpp"

namespace sirius::node {

std::int64_t ReorderBuffer::on_arrival(std::span<std::uint64_t> pending,
                                       std::int32_t seq, std::int32_t bytes) {
  SIRIUS_INVARIANT(seq >= 0 && seq < total_cells_,
                   "reorder: seq %d outside the flow's [0, %lld) cells", seq,
                   static_cast<long long>(total_cells_));
  if (seq < 0 || seq >= total_cells_) return 0;
  SIRIUS_INVARIANT(bytes >= 0, "reorder: cell %d carries %d bytes", seq,
                   bytes);
  if (bytes < 0) bytes = 0;
  if (seq < next_expected_) return 0;  // duplicate; ignore
  if (seq == next_expected_ && buffered_cells_ == 0) {
    // In order with nothing held: no successor can be pending, so the
    // prefix grows by this cell alone and the bitmap is not read.
    ++next_expected_;
    return 1;
  }
  if (seq > next_expected_) {
    const auto s = static_cast<std::size_t>(seq);
    const std::uint64_t mask = std::uint64_t{1} << (s % 64);
    if ((pending[s / 64] & mask) == 0) {
      pending[s / 64] |= mask;
      ++buffered_cells_;
      buffered_bytes_ += bytes;
      peak_bytes_ = std::max(peak_bytes_, buffered_bytes_);
    }
    return 0;
  }
  // In-order arrival: release it plus any buffered successors. The in-order
  // prefix only ever grows — that monotonicity is the in-order-release
  // contract the destination relies on.
  std::int64_t released = 1;
  ++next_expected_;
  while (next_expected_ < total_cells_ &&
         pending_bit(pending, static_cast<std::int32_t>(next_expected_))) {
    const auto s = static_cast<std::size_t>(next_expected_);
    pending[s / 64] &= ~(std::uint64_t{1} << (s % 64));
    --buffered_cells_;
    ++next_expected_;
    ++released;
  }
  SIRIUS_INVARIANT(next_expected_ <= total_cells_,
                   "reorder: in-order prefix %lld ran past the flow's %lld "
                   "cells",
                   static_cast<long long>(next_expected_),
                   static_cast<long long>(total_cells_));
  // Conservatively account released buffered cells at full payload: exact
  // byte tracking per seq would need a map; the peak statistic is taken
  // before release so it is unaffected.
  if (released > 1) {
    buffered_bytes_ -= bytes * (released - 1);
    buffered_bytes_ = std::max<std::int64_t>(buffered_bytes_, 0);
  }
  return released;
}

void ReorderBuffer::serialize(ckpt::Writer& w,
                              std::span<const std::uint64_t> pending) const {
  w.i64(total_cells_);
  w.i64(next_expected_);
  // The same bytes as Writer::vec_u64: a count, then the words.
  w.u64(pending.size());
  for (const std::uint64_t word : pending) w.u64(word);
  w.i64(buffered_cells_);
  w.i64(buffered_bytes_);
  w.i64(peak_bytes_);
}

bool ReorderBuffer::restore(ckpt::Reader& r, std::span<std::uint64_t> pending) {
  const std::int64_t total = r.i64();
  const std::int64_t next = r.i64();
  const std::size_t words = r.count(8, "reorder pending bitmap");
  if (!r.ok()) return false;
  if (words != pending.size() || words != words_for(total)) {
    r.fail("reorder bitmap size does not match the flow's cells");
    return false;
  }
  if (!r.u64s(pending, "reorder pending bitmap")) return false;
  const std::int64_t buffered = r.i64();
  const std::int64_t buffered_bytes = r.i64();
  const std::int64_t peak_bytes = r.i64();
  if (!r.ok()) return false;
  if (total < 0 || next < 0 || next > total || buffered < 0 ||
      buffered > total || buffered_bytes < 0 || peak_bytes < 0) {
    r.fail("reorder buffer state out of range");
    return false;
  }
  // on_arrival skips the bitmap when nothing is buffered, so the count must
  // be exactly the bits that are set.
  std::int64_t set_bits = 0;
  for (const std::uint64_t word : pending) set_bits += std::popcount(word);
  if (set_bits != buffered) {
    r.fail("reorder buffered-cell count does not match its bitmap");
    return false;
  }
  total_cells_ = total;
  next_expected_ = next;
  buffered_cells_ = buffered;
  buffered_bytes_ = buffered_bytes;
  peak_bytes_ = peak_bytes;
  return true;
}

}  // namespace sirius::node
