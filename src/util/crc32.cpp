#include "util/crc32.hpp"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace gompresso {
namespace {

// Slice-by-4 tables, generated at static-init time from the reflected
// polynomial 0xEDB88320.
struct Crc32Tables {
  std::array<std::array<std::uint32_t, 256>, 4> t{};

  Crc32Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1u) ? 0xEDB88320u : 0u);
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xFFu];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xFFu];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xFFu];
    }
  }
};

const Crc32Tables kTables;

/// Slice-by-4 over the inverted register `crc`: the portable kernel,
/// and the tail after the folded bulk.
std::uint32_t table_update(std::uint32_t crc, const std::uint8_t* p, std::size_t n) {
  while (n >= 4) {
    crc ^= static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
    crc = kTables.t[3][crc & 0xFFu] ^ kTables.t[2][(crc >> 8) & 0xFFu] ^
          kTables.t[1][(crc >> 16) & 0xFFu] ^ kTables.t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n--) crc = (crc >> 8) ^ kTables.t[0][(crc ^ *p++) & 0xFFu];
  return crc;
}

#if defined(__x86_64__)

/// One 128-bit lane `x` moved forward by the shift its constant pair
/// `k` encodes (both 64-bit halves multiplied), plus the next lane.
[[gnu::always_inline]] __attribute__((target("pclmul,sse4.1"))) inline __m128i
fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11)),
      next);
}

inline __m128i load16(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009) over the
/// inverted register `crc`. `n` is a multiple of 16 and at least 64.
/// Four lanes fold 64 bytes per step, then fold into one lane, which
/// then takes 16 bytes per step; the last 128 bits reduce to 64, and a
/// Barrett reduction yields the 32-bit register. The constants are
/// x^e mod P bit-reflected into 33 bits: k1/k2 are e = 4*128 +/- 32
/// (a 512-bit shift), k3/k4 are e = 128 +/- 32 (a 128-bit shift), k5 is
/// e = 64, and the Barrett pair is P and floor(x^64 / P).
[[gnu::aligned(64)]] __attribute__((target("pclmul,sse4.1"))) std::uint32_t
clmul_update(std::uint32_t crc, const std::uint8_t* p, std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i barrett = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k1k2, load16(p));
    x2 = fold(x2, k1k2, load16(p + 16));
    x3 = fold(x3, k1k2, load16(p + 32));
    x4 = fold(x4, k1k2, load16(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k3k4, load16(p));

  // 128 -> 64 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction, 64 -> 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

/// Decided once. __builtin_cpu_init() makes the probe valid even when
/// the first crc32() call comes from another object's static
/// initialiser, before the runtime would have initialised it.
bool clmul_supported() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return supported;
}

#endif  // __x86_64__

constexpr std::uint32_t kPoly = 0xEDB88320u;

/// a * b mod P over GF(2), both in the reflected bit order the table
/// CRC uses (bit 31 is x^0).
std::uint32_t mult_mod_p(std::uint32_t a, std::uint32_t b) {
  std::uint32_t p = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) p ^= b;
    b = (b & 1u) != 0 ? (b >> 1) ^ kPoly : b >> 1;
  }
  return p;
}

/// x^(2^k) mod P for k = 0..31. P is primitive of degree 32, so the
/// sequence repeats with period 32 and the table index wraps.
struct PowerTable {
  std::array<std::uint32_t, 32> x2n{};

  PowerTable() {
    std::uint32_t p = 1u << 30;  // x^1
    x2n[0] = p;
    for (std::size_t k = 1; k < x2n.size(); ++k) x2n[k] = p = mult_mod_p(p, p);
  }
};

const PowerTable kPowers;

/// x^(n * 2^k) mod P.
std::uint32_t x2n_mod_p(std::uint64_t n, unsigned k) {
  std::uint32_t p = 1u << 31;  // x^0
  for (; n != 0; n >>= 1, ++k) {
    if ((n & 1u) != 0) p = mult_mod_p(kPowers.x2n[k & 31u], p);
  }
  return p;
}

}  // namespace

std::uint32_t crc32(ByteSpan data, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#if defined(__x86_64__)
  if (n >= 64 && clmul_supported()) {
    const std::size_t bulk = n & ~std::size_t{15};
    crc = clmul_update(crc, p, bulk);
    p += bulk;
    n -= bulk;
  }
#endif
  return ~table_update(crc, p, n);
}

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b) {
  // Appending |B| bytes multiplies A's remainder by x^(8|B|); B's own
  // remainder adds on top (the pre/post inversions cancel in the sum).
  return mult_mod_p(x2n_mod_p(len_b, 3), crc_a) ^ crc_b;
}

namespace detail {

std::uint32_t crc32_table(ByteSpan data, std::uint32_t seed) {
  return ~table_update(~seed, data.data(), data.size());
}

bool crc32_uses_clmul() {
#if defined(__x86_64__)
  return clmul_supported();
#else
  return false;
#endif
}

}  // namespace detail

}  // namespace gompresso
