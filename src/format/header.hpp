// The Gompresso file format (paper Fig. 3).
//
//   +--------------------------------------------------------------+
//   | file header: magic, version, codec, DE flag, CWL,            |
//   |   window size, min/max match, block size, tokens/sub-block,  |
//   |   uncompressed size, per-block compressed sizes              |
//   +--------------------------------------------------------------+
//   | block 1 payload (codec-specific, see core/{byte,bit}_codec)  |
//   | block 2 payload                                              |
//   | ...                                                          |
//   +--------------------------------------------------------------+
//
// The per-block compressed-size list plays the same role as the paper's
// sub-block size list one level up: it lets the decompressor locate every
// block without scanning, which is what enables inter-block parallelism.
#pragma once

#include <cstdint>
#include <vector>

#include "util/byte_reader.hpp"
#include "util/common.hpp"

namespace gompresso::format {

inline constexpr std::uint32_t kMagic = 0x5A504D47u;  // "GMPZ"
inline constexpr std::uint8_t kVersion = 1;

enum class Codec : std::uint8_t {
  kByte = 0,  // Gompresso/Byte: fixed-width byte-aligned sequence records
  kBit = 1,   // Gompresso/Bit: two Huffman trees per block (DEFLATE-like)
};

/// File-level metadata. All fields mirror Fig. 3's "compressed file
/// header" box (dictionary size = window_size, etc.).
struct FileHeader {
  Codec codec = Codec::kBit;
  bool dependency_elimination = false;
  std::uint8_t codeword_limit = 10;  // CWL, bit codec only
  std::uint32_t window_size = 8 * 1024;
  std::uint32_t min_match = 3;
  std::uint32_t max_match = 64;
  std::uint32_t block_size = 256 * 1024;
  std::uint32_t tokens_per_subblock = 16;
  std::uint64_t uncompressed_size = 0;
  std::vector<std::uint64_t> block_compressed_sizes;

  std::size_t num_blocks() const { return block_compressed_sizes.size(); }

  /// Serialises the header to bytes.
  Bytes serialize() const;

  /// Parses a header from the start of `data`; `pos` is advanced past it.
  static FileHeader deserialize(ByteSpan data, std::size_t& pos);

  /// Parses a header from any buffered byte reader (file, stream, or
  /// serve::ByteSource) — the entry point the seek-index scan uses so a
  /// multi-gigabyte container never has to be resident to be indexed.
  static FileHeader deserialize(util::ByteReader& reader);

  /// Parses the header fields after the leading magic, for callers that
  /// already consumed the magic to dispatch on it (the streaming decoder
  /// cannot rewind a pipe to re-read it).
  static FileHeader deserialize_body(util::ByteReader& reader);

  /// Validates the block count against uncompressed_size / block_size.
  /// Every consumer that walks the block table assumes the blocks tile
  /// [0, uncompressed_size) without gaps; callers that cannot run the
  /// full check_payload (no payload length in hand, e.g. a seek-index
  /// sidecar or a bare container on a pipe) must still run this, or a
  /// crafted header yields a table with gaps/overlaps and downstream
  /// offset arithmetic wraps. Throws gompresso::Error.
  void check_block_count() const;

  /// Validates the size list against the `payload_bytes` that follow the
  /// header: the per-block compressed sizes must sum to exactly the
  /// payload, and the block count must match uncompressed_size /
  /// block_size (check_block_count). Calling this at parse time turns a
  /// truncated or corrupt-length file into one clear error instead of a
  /// confusing per-block failure later. Throws gompresso::Error.
  void check_payload(std::uint64_t payload_bytes) const;
};

}  // namespace gompresso::format
