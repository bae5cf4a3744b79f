// Wire format of a Sirius cell.
//
// Every timeslot carries one fixed-size cell (562 B at the default slot
// geometry). Besides the payload, the cell carries everything the §4.3/
// §4.4 co-design piggybacks on the cyclic schedule:
//   * a preamble the burst-mode receiver uses for CDR/amplitude training
//     (phase caching shrinks it to a few bytes, §A.1);
//   * the routing header (flow, sequence, source, destination);
//   * one optional congestion-control REQUEST (src asks the *receiving*
//     node for permission to relay a cell to `dst`);
//   * one optional GRANT (the receiving node may relay one cell for
//     `dst` through the sender) and one optional RELEASE;
//   * the sender's clock phase snapshot for the §4.4 synchronisation;
//   * a CRC-32 over header+payload (post-FEC residual errors trigger the
//     rare retransmission path, §4.3).
//
// The encoder/decoder below is deliberately bit-exact and endian-stable:
// it is the contract a hardware implementation (NIC / ToR P4 pipeline,
// §6 "Hardware changes") would implement.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/units.hpp"

namespace sirius::frame {

/// Piggybacked congestion-control signal: request, grant or release for
/// one destination (§4.3).
struct CcSignal {
  enum class Kind : std::uint8_t { kNone = 0, kRequest, kGrant, kRelease };
  Kind kind = Kind::kNone;
  NodeId dst = 0;

  friend bool operator==(const CcSignal&, const CcSignal&) = default;
};

/// The decoded contents of one cell.
struct CellFrame {
  // Routing header.
  FlowId flow = 0;
  std::int32_t seq = 0;
  NodeId src_node = 0;
  NodeId dst_node = 0;
  std::int32_t dst_server = 0;
  bool second_hop = false;  ///< already relayed once (forwarded directly)

  // Piggybacked control plane.
  CcSignal cc;
  /// Sender clock phase snapshot in picoseconds modulo 2^32 (§4.4).
  std::uint32_t clock_phase_ps = 0;
  /// Bitmap page of known-failed nodes for dissemination (§4.5): 8 nodes
  /// per cell, page index cycles with seq.
  std::uint8_t failed_page_index = 0;
  std::uint8_t failed_page_bits = 0;

  // Payload.
  std::vector<std::uint8_t> payload;

  friend bool operator==(const CellFrame&, const CellFrame&) = default;
};

/// Frame geometry and encoder/decoder for a fixed cell size.
class CellCodec {
 public:
  /// `cell_size` is the total on-wire cell (paper default 562 B);
  /// `preamble` the CDR training bytes at the front (phase caching makes
  /// 4 B enough; a cold-start receiver would need hundreds).
  explicit CellCodec(DataSize cell_size = DataSize::bytes(562),
                     std::int32_t preamble_bytes = 4);

  [[nodiscard]] std::int32_t preamble_bytes() const { return preamble_; }
  /// Fixed header+trailer overhead excluding the preamble.
  static constexpr std::int32_t kHeaderBytes = 31;
  static constexpr std::int32_t kCrcBytes = 4;

  [[nodiscard]] DataSize cell_size() const { return cell_; }
  /// Application bytes one cell can carry.
  [[nodiscard]] std::int32_t payload_capacity() const;

  /// Encodes `f` into exactly cell_size() bytes (payload padded with
  /// zeros). Requires f.payload.size() <= payload_capacity().
  std::vector<std::uint8_t> encode(const CellFrame& f) const;

  /// Decodes a cell; returns nullopt on size mismatch or CRC failure.
  std::optional<CellFrame> decode(std::span<const std::uint8_t> wire) const;

 private:
  DataSize cell_;
  std::int32_t preamble_;
};

}  // namespace sirius::frame
