// Crash-safe whole-file writes.
//
// Every durable artifact the tree produces (checkpoints, metrics series,
// traces, manifests) goes through `write_file_atomic`: the bytes land in a
// sibling temporary file, are fsync'd to stable storage, and only then
// replace the destination via an atomic rename. A reader therefore sees
// either the previous complete file or the new complete file — never a
// truncated hybrid — even if the process is killed mid-write.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <string_view>

namespace sirius {

/// Writes `contents` (which may hold arbitrary binary bytes) to `path`
/// crash-safely: temp file in the same directory, fsync, atomic rename,
/// directory fsync. Returns false and fills `*error` (when non-null) with a
/// one-line diagnostic on any failure; the destination is left untouched and
/// the temporary is cleaned up best-effort.
[[nodiscard]] bool write_file_atomic(const std::filesystem::path& path,
                                     std::string_view contents,
                                     std::string* error = nullptr);

/// Reads the whole regular file at `path` in two parts: its first
/// `head_size` bytes (all of them, if the file is shorter) into `*head` and
/// the rest into `*rest`, so a reader that parses a fixed header keeps the
/// body in its own buffer without moving it. Returns false and fills
/// `*error` (when non-null) on a missing, unreadable or non-regular path, or
/// when fewer bytes arrive than the file's size; `*head` and `*rest` are
/// then untouched. Binary-safe.
[[nodiscard]] bool read_file(const std::filesystem::path& path,
                             std::size_t head_size, std::string* head,
                             std::string* rest, std::string* error = nullptr);

}  // namespace sirius
