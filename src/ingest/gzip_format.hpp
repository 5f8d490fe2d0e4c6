// RFC 1952 gzip member framing: header parse/skip and trailer layout.
//
// Two parsers on purpose:
//   * parse_member_header() — the strict ByteReader path used where a
//     member starts a stream (the index build, which a gzip pipe
//     reaches too). Validates magic/CM, rejects
//     reserved FLG bits, captures FNAME, and verifies FHCRC (the CRC16
//     over the raw header bytes) when present.
//   * skip_member_header() — the in-stream BitReader path the chunk
//     decoders use at member transitions inside DEFLATE data. Same
//     structural validation, but it only skips the variable fields
//     (payload integrity is already guarded by the member CRC32 check
//     at index build). Running past the buffer surfaces through the
//     BitReader's overflow flag, which the chunk driver turns into a
//     grow-and-retry.
#pragma once

#include <cstdint>
#include <string>

#include "bitstream/bit_reader.hpp"
#include "format/sniff.hpp"
#include "util/byte_reader.hpp"
#include "util/common.hpp"

namespace gompresso::ingest {

/// FLG bits (RFC 1952 §2.3.1).
inline constexpr std::uint8_t kGzipFlagText = 1u << 0;
inline constexpr std::uint8_t kGzipFlagHcrc = 1u << 1;
inline constexpr std::uint8_t kGzipFlagExtra = 1u << 2;
inline constexpr std::uint8_t kGzipFlagName = 1u << 3;
inline constexpr std::uint8_t kGzipFlagComment = 1u << 4;
/// Reserved FLG bits "must be zero" — set bits mean a format this
/// parser does not understand.
inline constexpr std::uint8_t kGzipFlagReserved = 0xE0;

/// Fixed member trailer: CRC32 of the uncompressed member, then ISIZE
/// (uncompressed length mod 2^32), both little-endian.
inline constexpr std::size_t kGzipTrailerBytes = 8;

struct GzipMemberHeader {
  std::uint64_t header_bytes = 0;  // total header length
  std::uint8_t flags = 0;
  std::uint32_t mtime = 0;
  std::uint8_t xfl = 0;
  std::uint8_t os = 0;
  std::string name;  // FNAME contents when present (ISO 8859-1)
};

/// Strict parse of one member header starting at the reader's current
/// position. Throws FormatError on bad magic / CM / reserved FLG bits,
/// CorruptionError on an FHCRC mismatch, and whatever the reader
/// throws on truncation.
GzipMemberHeader parse_member_header(util::ByteReader& reader);

/// Skips a member header at a byte-aligned BitReader position,
/// validating magic/CM/reserved bits (CorruptionError — by the time a
/// mid-stream header is malformed the container format is established,
/// so it is data damage, not a format mismatch). Bits past the buffer
/// read as zero; the caller checks overflowed() afterwards.
void skip_member_header(BitReader& br);

}  // namespace gompresso::ingest
