// CRC-32 (IEEE 802.3 polynomial, reflected, init/final 0xffffffff).
//
// One implementation for every checksum the tree computes: the
// `sirius.ckpt.v1` payload CRC and the per-cell CRC of the wire format
// (frame/CellCodec). Two kernels give the same values:
//
//   * slice-by-8: eight bytes per step through eight 256-entry tables,
//     with the same values as the classic bytewise loop; portable;
//   * carry-less-multiply folding (x86 PCLMULQDQ): four 128-bit lanes fold
//     64 bytes per step, then one lane, then a Barrett reduction to 32
//     bits (Gopal et al., "Fast CRC Computation for Generic Polynomials
//     Using PCLMULQDQ Instruction", Intel, 2009). Bytes past the last
//     16-byte block go through slice-by-8.
//
// crc32() folds inputs of 64 bytes or more when the CPU has the
// instruction, chosen once per process, and uses slice-by-8 otherwise.
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

/// The kernels behind crc32(), each callable on its own so both can be
/// checked on one machine. crc32_fold() may run only where
/// crc32_fold_available() is true.
[[nodiscard]] std::uint32_t crc32_slice8(const void* data, std::size_t n);
[[nodiscard]] bool crc32_fold_available();
[[nodiscard]] std::uint32_t crc32_fold(const void* data, std::size_t n);

}  // namespace sirius
