#include "ckpt/checkpoint.hpp"

#include "ckpt/io.hpp"
#include "common/atomic_file.hpp"
#include "common/crc32.hpp"

namespace sirius::ckpt {

namespace {

constexpr std::string_view kMagic = "SIRCKPT\n";
constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 4;

// Every check parse() makes; on success the payload is
// file_bytes.substr(kHeaderSize) and is left for the caller to take.
LoadResult validate(std::string_view file_bytes) {
  LoadResult r;
  if (file_bytes.empty()) {
    r.status = LoadStatus::kEmptyFile;
    r.message = "checkpoint is empty (0 bytes); expected a " +
                std::string(kSchema) + " file";
    return r;
  }
  if (file_bytes.size() < kHeaderSize) {
    r.status = LoadStatus::kTruncatedHeader;
    r.message = "checkpoint header truncated: " +
                std::to_string(file_bytes.size()) + " bytes, need " +
                std::to_string(kHeaderSize);
    return r;
  }
  if (file_bytes.substr(0, kMagic.size()) != kMagic) {
    r.status = LoadStatus::kBadMagic;
    r.message = "bad magic: not a " + std::string(kSchema) + " checkpoint";
    return r;
  }
  Reader hdr(file_bytes.substr(kMagic.size(), kHeaderSize - kMagic.size()));
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
  const std::string_view payload = file_bytes.substr(kHeaderSize);
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
  LoadResult r = validate(file_bytes);
  if (r.ok()) r.payload.assign(file_bytes.substr(kHeaderSize));
  return r;
}

bool save(const std::filesystem::path& path, std::string_view payload,
          std::string* error) {
  return write_file_atomic(path, frame(payload), error);
}

LoadResult load(const std::filesystem::path& path) {
  std::string bytes;
  std::string error;
  if (!read_file(path, &bytes, &error)) {
    LoadResult r;
    r.status = LoadStatus::kIoError;
    r.message = error;
    return r;
  }
  // Unwrap in place: the payload keeps the file buffer instead of a copy.
  LoadResult r = validate(bytes);
  if (r.ok()) {
    bytes.erase(0, kHeaderSize);
    r.payload = std::move(bytes);
  }
  return r;
}

}  // namespace sirius::ckpt
