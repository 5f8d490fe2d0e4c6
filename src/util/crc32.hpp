// CRC-32 (IEEE 802.3 polynomial, the same checksum gzip uses).
//
// Every compressed Gompresso block stores the CRC of its uncompressed
// content; the decompressor verifies it so that corruption-injection tests
// can assert detection rather than silent garbage.
//
// On x86-64 CPUs with PCLMULQDQ, crc32() folds the 16-byte-multiple bulk
// of any span of 64 bytes or more with carry-less multiplies; the
// slice-by-4 table finishes the tail and does all of the work on short
// spans, on CPUs without PCLMULQDQ and on other architectures. The
// choice is made once per process and never changes a value.
#pragma once

#include <cstdint>

#include "util/common.hpp"

namespace gompresso {

/// Computes CRC-32 over `data`, continuing from `seed` (pass 0 to start).
std::uint32_t crc32(ByteSpan data, std::uint32_t seed = 0);

/// CRC-32 of the concatenation A ++ B from crc32(A), crc32(B) and
/// |B| alone, in O(log |B|) GF(2) polynomial products (the zlib
/// crc32_combine). This is what lets independently checksummed pieces
/// of one stream — chunks decoded on different threads — be chained
/// into a whole-member CRC without touching their bytes again.
std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b);

namespace detail {

/// The slice-by-4 table CRC alone, with crc32()'s contract: the portable
/// kernel, and the oracle tests hold the folded kernel to.
std::uint32_t crc32_table(ByteSpan data, std::uint32_t seed = 0);

/// True when crc32() folds with PCLMULQDQ in this process.
bool crc32_uses_clmul();

}  // namespace detail

}  // namespace gompresso
