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

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sirius::ckpt {

namespace detail {

// Little-endian stores and loads through a byte pointer. On a
// little-endian host each is one word-wide memcpy; elsewhere a byte loop,
// which compilers do not reliably fold into one access.
template <typename T>
void store_le(char* p, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
  }
}
template <typename T>
T load_le(const char* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<std::uint8_t>(p[i])) << (8 * i);
    }
  }
  return v;
}

}  // namespace detail

class Writer {
 public:
  /// `reserve` bytes are allocated up front, so a writer that knows about
  /// how much it will write grows its buffer once.
  explicit Writer(std::size_t reserve = 0) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { *room(1) = static_cast<char>(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i32(std::int32_t v) { append_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void f64(double v) { append_le(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    append_bytes(s.data(), s.size());
  }
  /// Section marker: a 4-byte sentinel the reader asserts, so a layout
  /// mismatch reports the section name instead of silently misparsing.
  void tag(std::uint32_t sentinel) { u32(sentinel); }

  void vec_u8(const std::vector<std::uint8_t>& v) {
    u64(v.size());
    append_bytes(reinterpret_cast<const char*>(v.data()), v.size());
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

  /// The bytes written so far (flushes the staging chunk).
  [[nodiscard]] const std::string& data() {
    flush();
    return buf_;
  }
  [[nodiscard]] std::size_t size() const { return buf_.size() + used_; }
  /// Hands over the encoded bytes without copying them.
  [[nodiscard]] std::string take() && {
    flush();
    return std::move(buf_);
  }

 private:
  // Fixed-width fields are stored into a staging chunk with plain inline
  // stores and reach `buf_` one chunk-sized append at a time.
  static constexpr std::size_t kChunk = 4096;

  char* room(std::size_t n) {
    if (kChunk - used_ < n) flush();
    char* p = chunk_ + used_;
    used_ += n;
    return p;
  }
  template <typename T>
  void append_le(T v) {
    detail::store_le(room(sizeof(T)), v);
  }
  void append_bytes(const char* p, std::size_t n) {
    flush();
    buf_.append(p, n);
  }
  void flush() {
    buf_.append(chunk_, used_);
    used_ = 0;
  }

  std::string buf_;
  char chunk_[kChunk];
  std::size_t used_ = 0;
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
    return std::bit_cast<double>(read_le<std::uint64_t>("f64"));
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
    const auto* p = reinterpret_cast<const std::uint8_t*>(data_.data() + pos_);
    pos_ += n;
    return std::vector<std::uint8_t>(p, p + n);
  }
  [[nodiscard]] std::vector<std::int32_t> vec_i32(const char* what) {
    return read_vec<std::int32_t, std::uint32_t>(what, [](std::uint32_t x) {
      return static_cast<std::int32_t>(x);
    });
  }
  [[nodiscard]] std::vector<std::uint64_t> vec_u64(const char* what) {
    return read_vec<std::uint64_t, std::uint64_t>(
        what, [](std::uint64_t x) { return x; });
  }
  /// Fills `out` with the next out.size() u64 fields (no length prefix:
  /// the caller read and checked the count).
  bool u64s(std::span<std::uint64_t> out, const char* what) {
    if (!need(out.size() * sizeof(std::uint64_t), what)) return false;
    const char* p = data_.data() + pos_;
    for (auto& x : out) {
      x = detail::load_le<std::uint64_t>(p);
      p += sizeof(std::uint64_t);
    }
    pos_ += out.size() * sizeof(std::uint64_t);
    return true;
  }
  /// The next `n` bytes, undecoded, for a caller that decodes a run of
  /// fixed-width records itself (detail::load_le); empty on failure.
  [[nodiscard]] std::string_view raw_bytes(std::size_t n, const char* what) {
    if (!need(n, what)) return {};
    const std::string_view v = data_.substr(pos_, n);
    pos_ += n;
    return v;
  }
  [[nodiscard]] std::vector<std::int64_t> vec_i64(const char* what) {
    return read_vec<std::int64_t, std::uint64_t>(what, [](std::uint64_t x) {
      return static_cast<std::int64_t>(x);
    });
  }
  [[nodiscard]] std::vector<double> vec_f64(const char* what) {
    return read_vec<double, std::uint64_t>(
        what, [](std::uint64_t x) { return std::bit_cast<double>(x); });
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
    const T v = detail::load_le<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }
  // count() has already checked that all `n` elements of `sizeof(Bits)`
  // bytes are present, so the loop reads without further bounds checks.
  template <typename V, typename Bits, typename FromBits>
  std::vector<V> read_vec(const char* what, FromBits from_bits) {
    const std::size_t n = count(sizeof(Bits), what);
    std::vector<V> v(n);
    const char* p = data_.data() + pos_;
    for (auto& x : v) {
      x = from_bits(detail::load_le<Bits>(p));
      p += sizeof(Bits);
    }
    pos_ += n * sizeof(Bits);
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  std::string error_;
};

}  // namespace sirius::ckpt
