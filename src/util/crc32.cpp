#include "util/crc32.hpp"

#include <array>

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
  while (n >= 4) {
    crc ^= static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
    crc = kTables.t[3][crc & 0xFFu] ^ kTables.t[2][(crc >> 8) & 0xFFu] ^
          kTables.t[1][(crc >> 16) & 0xFFu] ^ kTables.t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n--) crc = (crc >> 8) ^ kTables.t[0][(crc ^ *p++) & 0xFFu];
  return ~crc;
}

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b) {
  // Appending |B| bytes multiplies A's remainder by x^(8|B|); B's own
  // remainder adds on top (the pre/post inversions cancel in the sum).
  return mult_mod_p(x2n_mod_p(len_b, 3), crc_a) ^ crc_b;
}

}  // namespace gompresso
