// `sirius.ckpt.v1` file framing: magic, version, length, CRC, payload.
//
// On-disk layout (all integers little-endian):
//
//   offset size  field
//   0      8     magic  "SIRCKPT\n"
//   8      4     version (currently 1)
//   12     8     payload length in bytes
//   20     4     CRC-32 (IEEE 802.3, reflected) of the payload bytes
//   24     n     payload (opaque to this layer; see sim serialize order)
//
// Writes are crash-safe via common/atomic_file; reads are defensive: an
// empty file, truncated header, wrong magic, unsupported version,
// truncated payload and CRC mismatch are each rejected with a distinct
// diagnostic and a distinct status, and none of them can crash the
// process or read out of bounds.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

namespace sirius::ckpt {

inline constexpr std::string_view kSchema = "sirius.ckpt.v1";
inline constexpr std::uint32_t kVersion = 1;

enum class LoadStatus : std::uint8_t {
  kOk,
  kIoError,           // file missing / unreadable
  kEmptyFile,         // zero bytes
  kTruncatedHeader,   // shorter than the fixed header
  kBadMagic,          // not a sirius checkpoint at all
  kBadVersion,        // framed by a future/unknown format version
  kTruncatedPayload,  // header promises more bytes than the file holds
  kCrcMismatch,       // bit-flip somewhere in the payload
};

struct LoadResult {
  LoadStatus status = LoadStatus::kIoError;
  std::string message;  // one-line human diagnostic, always set on failure
  std::string payload;  // valid only when status == kOk
  [[nodiscard]] bool ok() const { return status == LoadStatus::kOk; }
};

/// Frames `payload` with magic/version/length/CRC; the returned bytes are
/// the exact file contents.
[[nodiscard]] std::string frame(std::string_view payload);

/// Validates and unwraps file bytes produced by `frame`. Never throws.
[[nodiscard]] LoadResult parse(std::string_view file_bytes);

/// frame() + crash-safe write (temp file, fsync, atomic rename).
[[nodiscard]] bool save(const std::filesystem::path& path,
                        std::string_view payload, std::string* error);

/// Reads `path` and parse()s it; IO failures surface as kIoError.
[[nodiscard]] LoadResult load(const std::filesystem::path& path);

}  // namespace sirius::ckpt
