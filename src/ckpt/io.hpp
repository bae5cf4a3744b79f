// Binary serialization primitives for `sirius.ckpt.v1` payloads.
//
// `Writer` appends little-endian fixed-width fields to a byte buffer;
// `Reader` consumes them with sticky, bounds-checked failure semantics: the
// first malformed field latches an error message and every later read
// returns a zero value, so restore code can decode an entire section and
// check `ok()` once — hostile input degrades to a clean diagnostic, never
// out-of-bounds access or UB.
//
// The format is deliberately position-based (no field names): checkpoints
// are written and read by the same binary version, and the file-level
// version byte (see checkpoint.hpp) is the compatibility gate. Section
// `tag()` markers catch writer/reader drift with a precise message.
//
// Checkpointable state implements the pair
//   void serialize(ckpt::Writer& w) const;
//   bool restore(ckpt::Reader& r);  // false, diagnostic latched in `r`
// as ordinary member functions. Modules at layer rank >= 3 (stats, cc,
// node, sched, ctrl, sim) do so for their private state; the leaf types
// below rank 3 (Rng, Histogram, telemetry counters) instead expose plain
// state accessors and are serialized *by* their owners, which keeps the
// layer matrix acyclic (ckpt sits at rank 2, so no other rank <= 2 layer
// may include it).
//
// Contract: `restore(serialize(x))` must reproduce the object so exactly
// that continuing the simulation is bit-identical to never having
// checkpointed — including RNG streams, float accumulation order and
// container iteration order. `restore` must never exhibit UB on hostile
// input: decode through the bounds-checked Reader, validate semantic
// ranges, and report failure via `Reader::fail`.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace sirius::ckpt {

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i32(std::int32_t v) { append_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    append_le(bits);
  }
  void str(std::string_view s) {
    u64(s.size());
    buf_.append(s.data(), s.size());
  }
  /// Section marker: a 4-byte sentinel the reader asserts, so a layout
  /// mismatch reports the section name instead of silently misparsing.
  void tag(std::uint32_t sentinel) { u32(sentinel); }

  void vec_u8(const std::vector<std::uint8_t>& v) {
    u64(v.size());
    for (const auto x : v) u8(x);
  }
  void vec_i32(const std::vector<std::int32_t>& v) {
    u64(v.size());
    for (const auto x : v) i32(x);
  }
  void vec_u64(const std::vector<std::uint64_t>& v) {
    u64(v.size());
    for (const auto x : v) u64(x);
  }
  void vec_i64(const std::vector<std::int64_t>& v) {
    u64(v.size());
    for (const auto x : v) i64(x);
  }
  void vec_f64(const std::vector<double>& v) {
    u64(v.size());
    for (const auto x : v) f64(x);
  }

  [[nodiscard]] const std::string& data() const { return buf_; }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  std::string buf_;
};

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    if (!need(1, "u8")) return 0;
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  [[nodiscard]] std::uint32_t u32() { return read_le<std::uint32_t>("u32"); }
  [[nodiscard]] std::uint64_t u64() { return read_le<std::uint64_t>("u64"); }
  [[nodiscard]] std::int32_t i32() {
    return static_cast<std::int32_t>(read_le<std::uint32_t>("i32"));
  }
  [[nodiscard]] std::int64_t i64() {
    return static_cast<std::int64_t>(read_le<std::uint64_t>("i64"));
  }
  [[nodiscard]] bool b() { return u8() != 0; }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = read_le<std::uint64_t>("f64");
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  [[nodiscard]] std::string str() {
    const std::uint64_t n = u64();
    if (failed_ || !need(n, "string body")) return {};
    std::string s(data_.substr(pos_, static_cast<std::size_t>(n)));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }
  /// Asserts the next 4 bytes are `sentinel`; on mismatch latches an error
  /// naming `section`.
  bool expect_tag(std::uint32_t sentinel, const char* section) {
    const std::uint32_t got = u32();
    if (failed_) return false;
    if (got != sentinel) {
      fail(std::string("section marker mismatch at '") + section +
           "' (layout drift or corrupt payload)");
      return false;
    }
    return true;
  }

  /// Reads a `u64` element count, rejecting counts that cannot fit in the
  /// remaining bytes (`elem_size` bytes each) — a hostile length prefix must
  /// not drive a multi-gigabyte allocation.
  [[nodiscard]] std::size_t count(std::size_t elem_size, const char* what) {
    const std::uint64_t n = u64();
    if (failed_) return 0;
    const std::size_t min_bytes =
        static_cast<std::size_t>(n) * (elem_size > 0 ? elem_size : 1);
    if (n > remaining() || min_bytes > remaining()) {
      fail(std::string("element count for '") + what +
           "' exceeds remaining payload (truncated or corrupt)");
      return 0;
    }
    return static_cast<std::size_t>(n);
  }

  [[nodiscard]] std::vector<std::uint8_t> vec_u8(const char* what) {
    const std::size_t n = count(1, what);
    std::vector<std::uint8_t> v(n);
    for (auto& x : v) x = u8();
    return v;
  }
  [[nodiscard]] std::vector<std::int32_t> vec_i32(const char* what) {
    const std::size_t n = count(4, what);
    std::vector<std::int32_t> v(n);
    for (auto& x : v) x = i32();
    return v;
  }
  [[nodiscard]] std::vector<std::uint64_t> vec_u64(const char* what) {
    const std::size_t n = count(8, what);
    std::vector<std::uint64_t> v(n);
    for (auto& x : v) x = u64();
    return v;
  }
  [[nodiscard]] std::vector<std::int64_t> vec_i64(const char* what) {
    const std::size_t n = count(8, what);
    std::vector<std::int64_t> v(n);
    for (auto& x : v) x = i64();
    return v;
  }
  [[nodiscard]] std::vector<double> vec_f64(const char* what) {
    const std::size_t n = count(8, what);
    std::vector<double> v(n);
    for (auto& x : v) x = f64();
    return v;
  }

  /// Latches a semantic failure discovered by the caller (e.g. a value out
  /// of its legal range) so it reports through the same channel.
  void fail(std::string message) {
    if (failed_) return;  // first error wins
    failed_ = true;
    error_ = std::move(message);
  }

  [[nodiscard]] bool ok() const { return !failed_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  /// The payload must be fully consumed: trailing bytes mean layout drift.
  bool expect_end() {
    if (!failed_ && remaining() != 0) {
      fail("trailing bytes after final section (layout drift or corrupt "
           "payload)");
    }
    return ok();
  }

 private:
  bool need(std::uint64_t n, const char* what) {
    if (failed_) return false;
    if (n > remaining()) {
      fail(std::string("payload truncated while reading ") + what);
      return false;
    }
    return true;
  }
  template <typename T>
  T read_le(const char* what) {
    if (!need(sizeof(T), what)) return 0;
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<std::uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  std::string error_;
};

}  // namespace sirius::ckpt
