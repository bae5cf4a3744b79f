#include "common/crc32.hpp"

#include <array>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SIRIUS_CRC32_FOLD 1
#endif

namespace sirius {

namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// tables[0] is the bytewise table; tables[k][b] is the CRC contribution of
// byte b followed by k zero bytes, so eight lookups fold eight bytes.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

// Little-endian load independent of host byte order; compilers fold it into
// one 32-bit load on little-endian targets.
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

// Advances the running (pre-inversion) CRC `c` over `n` bytes.
std::uint32_t slice8(std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
        kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
        kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    c = kTables[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  return c;
}

#ifdef SIRIUS_CRC32_FOLD

// Below this the fold's set-up and reduction cost more than they save.
constexpr std::size_t kFoldMin = 64;

#define SIRIUS_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

// One fold step: the 128-bit lane `acc`, multiplied by the constant pair in
// `k` (low half times k's low word, high half times k's high word), moves
// 128 bits (k3:k4) or 512 bits (k1:k2) further along and absorbs `next`.
SIRIUS_CLMUL_TARGET inline __m128i fold_lane(__m128i acc, __m128i k,
                                             __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

SIRIUS_CLMUL_TARGET inline __m128i load128(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Advances the running CRC `c` over `n` bytes, n >= 64 and a multiple of
// 16. The constants are x^k mod P in the bit-reflected domain (the
// paper's k1..k5), P' = the reflected polynomial with its x^32 term, and
// mu = floor(x^64 / P) reflected, for the Barrett step.
SIRIUS_CLMUL_TARGET std::uint32_t fold(std::uint32_t c, const std::uint8_t* p,
                                       std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  // Four lanes over 64 bytes per step; the running CRC enters through the
  // first lane's low 32 bits.
  __m128i x0 =
      _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load128(p + 16);
  __m128i x2 = load128(p + 32);
  __m128i x3 = load128(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = fold_lane(x0, k1k2, load128(p));
    x1 = fold_lane(x1, k1k2, load128(p + 16));
    x2 = fold_lane(x2, k1k2, load128(p + 32));
    x3 = fold_lane(x3, k1k2, load128(p + 48));
  }
  // Four lanes into one, then the remaining 16-byte blocks.
  x0 = fold_lane(x0, k3k4, x1);
  x0 = fold_lane(x0, k3k4, x2);
  x0 = fold_lane(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold_lane(x0, k3k4, load128(p));

  // 128 -> 64 bits: the low half times k4 joins the high half.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  // 64 -> 32 bits: the low word times k5 joins the upper 32 bits.
  x0 = _mm_xor_si128(
      _mm_srli_si128(x0, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  // Barrett reduction: q = low32(x) * mu, then x ^= low32(q) * P'.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

#undef SIRIUS_CLMUL_TARGET

#endif  // SIRIUS_CRC32_FOLD

}  // namespace

std::uint32_t crc32_slice8(const void* data, std::size_t n) {
  return slice8(0xffffffffu, static_cast<const std::uint8_t*>(data), n) ^
         0xffffffffu;
}

bool crc32_fold_available() {
#ifdef SIRIUS_CRC32_FOLD
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

std::uint32_t crc32_fold(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = 0xffffffffu;
#ifdef SIRIUS_CRC32_FOLD
  if (n >= kFoldMin) {
    const std::size_t blocks = n & ~std::size_t{15};
    c = fold(c, p, blocks);
    p += blocks;
    n -= blocks;
  }
#endif
  return slice8(c, p, n) ^ 0xffffffffu;
}

std::uint32_t crc32(const void* data, std::size_t n) {
  static const bool kFold = crc32_fold_available();
  return kFold ? crc32_fold(data, n) : crc32_slice8(data, n);
}

}  // namespace sirius
