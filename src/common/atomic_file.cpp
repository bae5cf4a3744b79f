#include "common/atomic_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <system_error>

namespace sirius {

namespace {

// Fills `*error` with "what: path (strerror(err))"; `err` is the errno of
// the failed call, captured before any cleanup can overwrite it.
void set_error(std::string* error, const std::filesystem::path& path,
               const char* what, int err) {
  if (error == nullptr) return;
  *error = std::string(what) + ": " + path.string();
  if (err != 0) {
    *error += " (";
    *error += std::strerror(err);
    *error += ")";
  }
}

// Writes all of `bytes` to `fd`, retrying interrupted and short writes.
// Returns 0, or the errno of the failed write.
int write_all(int fd, std::string_view bytes) {
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    if (n == 0) return EIO;  // no progress on a regular file
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return 0;
}

}  // namespace

bool write_file_atomic(const std::filesystem::path& path,
                       std::string_view contents, std::string* error) {
  if (path.empty()) {
    set_error(error, path, "atomic write: empty path", 0);
    return false;
  }
  // Temp file must live on the same filesystem as the destination for the
  // rename to be atomic, so it is a sibling, not /tmp.
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0666);
  if (fd < 0) {
    set_error(error, tmp, "atomic write: cannot open temp file", errno);
    return false;
  }
  // One descriptor writes, fsyncs and closes the temp file; close() is
  // checked too, since some filesystems report write-back errors there.
  const char* failed = nullptr;
  int err = write_all(fd, contents);
  if (err != 0) {
    failed = "atomic write: write failed";
  } else if (::fsync(fd) != 0) {
    err = errno;
    failed = "atomic write: fsync failed";
  }
  if (::close(fd) != 0 && failed == nullptr) {
    err = errno;
    failed = "atomic write: close failed";
  }
  if (failed != nullptr) {
    set_error(error, tmp, failed, err);
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "atomic write: rename to " + path.string() +
               " failed (" + ec.message() + ")";
    }
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    return false;
  }
  // Persist the rename itself. A directory that cannot be fsync'd (some
  // filesystems) is not fatal: the data file is already durable.
  const auto dir = path.has_parent_path() ? path.parent_path()
                                          : std::filesystem::path(".");
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (dir_fd >= 0) {
    (void)::fsync(dir_fd);
    ::close(dir_fd);
  }
  return true;
}

bool read_file(const std::filesystem::path& path, std::size_t head_size,
               std::string* head, std::string* rest, std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    set_error(error, path, "cannot open file", errno);
    return false;
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    set_error(error, path, "cannot stat file", errno);
    ::close(fd);
    return false;
  }
  if (!S_ISREG(st.st_mode)) {
    set_error(error, path, "not a regular file", 0);
    ::close(fd);
    return false;
  }
  // Both parts are sized once from fstat and filled by one read loop each.
  const auto size = static_cast<std::size_t>(st.st_size);
  std::string first(std::min(head_size, size), '\0');
  std::string second(size - first.size(), '\0');
  std::size_t got = 0;
  for (std::string* part : {&first, &second}) {
    std::size_t filled = 0;
    while (filled < part->size()) {
      const ssize_t n =
          ::read(fd, part->data() + filled, part->size() - filled);
      if (n < 0) {
        if (errno == EINTR) continue;
        set_error(error, path, "read failed", errno);
        ::close(fd);
        return false;
      }
      if (n == 0) break;
      filled += static_cast<std::size_t>(n);
    }
    got += filled;
    if (filled != part->size()) break;
  }
  ::close(fd);
  if (got != size) {
    if (error != nullptr) {
      *error = "short read: " + path.string() + " (" + std::to_string(got) +
               " of " + std::to_string(size) + " bytes)";
    }
    return false;
  }
  *head = std::move(first);
  *rest = std::move(second);
  return true;
}

}  // namespace sirius
