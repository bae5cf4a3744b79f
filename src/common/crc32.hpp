// CRC-32 (IEEE 802.3 polynomial, reflected, init/final 0xffffffff).
//
// One implementation for every checksum the tree computes: the
// `sirius.ckpt.v1` payload CRC and the per-cell CRC of the wire format
// (frame/CellCodec). Slice-by-8: eight bytes per step through eight
// 256-entry tables, with the same values as the classic bytewise loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace sirius {

/// CRC-32 of `n` bytes at `data`; the check value of "123456789" is
/// 0xCBF43926.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t n);

[[nodiscard]] inline std::uint32_t crc32(std::string_view data) {
  return crc32(data.data(), data.size());
}
[[nodiscard]] inline std::uint32_t crc32(std::span<const std::uint8_t> data) {
  return crc32(data.data(), data.size());
}

}  // namespace sirius
