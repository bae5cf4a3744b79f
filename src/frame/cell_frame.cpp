#include "frame/cell_frame.hpp"

#include <cassert>

#include "common/crc32.hpp"

namespace sirius::frame {
namespace {

// Little-endian scalar writers/readers: endian-stable regardless of host.
template <typename T>
void put(std::vector<std::uint8_t>& out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<std::uint8_t>(
        (static_cast<std::uint64_t>(v) >> (8 * i)) & 0xff));
  }
}

template <typename T>
T get(std::span<const std::uint8_t> in, std::size_t& pos) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<std::uint64_t>(in[pos + i]) << (8 * i);
  }
  pos += sizeof(T);
  return static_cast<T>(v);
}

}  // namespace

CellCodec::CellCodec(DataSize cell_size, std::int32_t preamble_bytes)
    : cell_(cell_size), preamble_(preamble_bytes) {
  assert(payload_capacity() > 0 && "cell too small for header + preamble");
}

std::int32_t CellCodec::payload_capacity() const {
  return static_cast<std::int32_t>(cell_.in_bytes()) - preamble_ -
         kHeaderBytes - kCrcBytes;
}

std::vector<std::uint8_t> CellCodec::encode(const CellFrame& f) const {
  assert(static_cast<std::int32_t>(f.payload.size()) <= payload_capacity());
  std::vector<std::uint8_t> out;
  out.reserve(static_cast<std::size_t>(cell_.in_bytes()));

  // Preamble: alternating training pattern for the burst receiver.
  for (std::int32_t i = 0; i < preamble_; ++i) out.push_back(0x55);

  const std::size_t body_start = out.size();
  // Routing header (21 bytes).
  put<std::uint64_t>(out, static_cast<std::uint64_t>(f.flow));
  put<std::uint32_t>(out, static_cast<std::uint32_t>(f.seq));
  put<std::uint16_t>(out, static_cast<std::uint16_t>(f.src_node));
  put<std::uint16_t>(out, static_cast<std::uint16_t>(f.dst_node));
  put<std::uint32_t>(out, static_cast<std::uint32_t>(f.dst_server));
  // Control byte: hop flag + cc kind (2 bits each used).
  const auto ctrl = static_cast<std::uint8_t>(
      (f.second_hop ? 1u : 0u) |
      (static_cast<std::uint32_t>(f.cc.kind) << 1));
  put<std::uint8_t>(out, ctrl);
  put<std::uint16_t>(out, static_cast<std::uint16_t>(f.cc.dst));
  // Sync snapshot + failure-dissemination page + payload length (8 bytes
  // total with the length field).
  put<std::uint32_t>(out, f.clock_phase_ps);
  put<std::uint8_t>(out, f.failed_page_index);
  put<std::uint8_t>(out, f.failed_page_bits);
  put<std::uint16_t>(out, static_cast<std::uint16_t>(f.payload.size()));
  assert(out.size() - body_start == kHeaderBytes);

  out.insert(out.end(), f.payload.begin(), f.payload.end());
  // Zero padding up to the fixed cell size minus CRC.
  out.resize(static_cast<std::size_t>(cell_.in_bytes()) - kCrcBytes, 0);

  const std::uint32_t crc = crc32(
      std::span<const std::uint8_t>(out.data() + body_start,
                                    out.size() - body_start));
  put<std::uint32_t>(out, crc);
  assert(out.size() == static_cast<std::size_t>(cell_.in_bytes()));
  return out;
}

std::optional<CellFrame> CellCodec::decode(
    std::span<const std::uint8_t> wire) const {
  if (wire.size() != static_cast<std::size_t>(cell_.in_bytes())) {
    return std::nullopt;
  }
  const auto body_start = static_cast<std::size_t>(preamble_);
  const std::size_t crc_pos = wire.size() - kCrcBytes;
  {
    std::size_t pos = crc_pos;
    const auto stored = get<std::uint32_t>(wire, pos);
    const auto computed = crc32(wire.subspan(body_start, crc_pos - body_start));
    if (stored != computed) return std::nullopt;
  }

  CellFrame f;
  std::size_t pos = body_start;
  f.flow = static_cast<FlowId>(get<std::uint64_t>(wire, pos));
  f.seq = static_cast<std::int32_t>(get<std::uint32_t>(wire, pos));
  f.src_node = static_cast<NodeId>(get<std::uint16_t>(wire, pos));
  f.dst_node = static_cast<NodeId>(get<std::uint16_t>(wire, pos));
  f.dst_server = static_cast<std::int32_t>(get<std::uint32_t>(wire, pos));
  const auto ctrl = get<std::uint8_t>(wire, pos);
  f.second_hop = (ctrl & 1u) != 0;
  f.cc.kind = static_cast<CcSignal::Kind>((ctrl >> 1) & 0x3u);
  f.cc.dst = static_cast<NodeId>(get<std::uint16_t>(wire, pos));
  f.clock_phase_ps = get<std::uint32_t>(wire, pos);
  f.failed_page_index = get<std::uint8_t>(wire, pos);
  f.failed_page_bits = get<std::uint8_t>(wire, pos);
  const auto payload_len = get<std::uint16_t>(wire, pos);
  if (payload_len > payload_capacity()) return std::nullopt;
  f.payload.assign(wire.begin() + static_cast<std::ptrdiff_t>(pos),
                   wire.begin() + static_cast<std::ptrdiff_t>(pos) +
                       payload_len);
  return f;
}

}  // namespace sirius::frame
