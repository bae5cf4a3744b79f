#include "ckpt/checkpoint.hpp"

#include <algorithm>

#include "ckpt/io.hpp"
#include "common/atomic_file.hpp"
#include "common/crc32.hpp"

namespace sirius::ckpt {

namespace {

constexpr std::string_view kMagic = "SIRCKPT\n";
constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 4;

// Every check parse() makes, over a file split into its first kHeaderSize
// bytes (fewer if the file is shorter) and the rest; the payload is left
// for the caller to take.
LoadResult validate(std::string_view header, std::string_view payload) {
  LoadResult r;
  if (header.empty()) {
    r.status = LoadStatus::kEmptyFile;
    r.message = "checkpoint is empty (0 bytes); expected a " +
                std::string(kSchema) + " file";
    return r;
  }
  if (header.size() < kHeaderSize) {
    r.status = LoadStatus::kTruncatedHeader;
    r.message = "checkpoint header truncated: " +
                std::to_string(header.size()) + " bytes, need " +
                std::to_string(kHeaderSize);
    return r;
  }
  if (header.substr(0, kMagic.size()) != kMagic) {
    r.status = LoadStatus::kBadMagic;
    r.message = "bad magic: not a " + std::string(kSchema) + " checkpoint";
    return r;
  }
  Reader hdr(header.substr(kMagic.size()));
  const std::uint32_t version = hdr.u32();
  const std::uint64_t payload_len = hdr.u64();
  const std::uint32_t stored_crc = hdr.u32();
  if (version != kVersion) {
    r.status = LoadStatus::kBadVersion;
    r.message = "unsupported checkpoint version " + std::to_string(version) +
                " (this build reads version " + std::to_string(kVersion) +
                ")";
    return r;
  }
  if (payload.size() != payload_len) {
    r.status = LoadStatus::kTruncatedPayload;
    r.message = "checkpoint payload truncated: header promises " +
                std::to_string(payload_len) + " bytes, file holds " +
                std::to_string(payload.size());
    return r;
  }
  const std::uint32_t actual_crc = crc32(payload);
  if (actual_crc != stored_crc) {
    r.status = LoadStatus::kCrcMismatch;
    r.message = "checkpoint CRC mismatch (stored " +
                std::to_string(stored_crc) + ", computed " +
                std::to_string(actual_crc) + "): file is corrupt";
    return r;
  }
  r.status = LoadStatus::kOk;
  return r;
}

}  // namespace

std::string frame(std::string_view payload) {
  Writer header;
  for (const char ch : kMagic) header.u8(static_cast<std::uint8_t>(ch));
  header.u32(kVersion);
  header.u64(payload.size());
  header.u32(crc32(payload));
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  out.append(header.data());
  out.append(payload.data(), payload.size());
  return out;
}

LoadResult parse(std::string_view file_bytes) {
  const std::size_t split = std::min(file_bytes.size(), kHeaderSize);
  LoadResult r =
      validate(file_bytes.substr(0, split), file_bytes.substr(split));
  if (r.ok()) r.payload.assign(file_bytes.substr(split));
  return r;
}

bool save(const std::filesystem::path& path, std::string_view payload,
          std::string* error) {
  return write_file_atomic(path, frame(payload), error);
}

LoadResult load(const std::filesystem::path& path) {
  // The payload is read into its own buffer, which the result then takes.
  std::string header;
  std::string payload;
  std::string error;
  if (!read_file(path, kHeaderSize, &header, &payload, &error)) {
    LoadResult r;
    r.status = LoadStatus::kIoError;
    r.message = error;
    return r;
  }
  LoadResult r = validate(header, payload);
  if (r.ok()) r.payload = std::move(payload);
  return r;
}

}  // namespace sirius::ckpt
