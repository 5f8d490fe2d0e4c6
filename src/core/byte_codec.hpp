// Gompresso/Byte block codec.
//
// "Gompresso/Byte can combine decoding and decompression in a single pass
// because of its fixed-length byte-level coding scheme. The token streams
// can be read directly from the compressed output." (paper §III-B)
//
// Block payload layout:
//   varint  n_sequences
//   records n_sequences * 4 bytes, little-endian packed:
//             bits  0..12  literal_len          (0..8191)
//             bits 13..18  match_len - 2        (1..63 -> len 3..65;
//                                                0 = no back-reference)
//             bits 19..31  match_dist - 1       (0..8191 -> dist 1..8192)
//   bytes   literal region (concatenated literal strings, sequence order)
//
// The fixed-width records are what make lane-parallel reads possible: lane
// i of a warp group loads record (group*32 + i) directly, with no
// sequential scan — this is the "fixed-length byte-level coding" the
// paper contrasts with LZ4's variable-length greedy tokens. The packing
// requires window <= 8 KB and max match <= 65 (the paper's §V defaults
// are 8 KB / 64) and literal runs <= 8191 (longer runs are split by the
// parser, ParserOptions::max_literal_run). The 4-byte records are still
// wider than LZ4's 1-3 byte tokens, which is why Gompresso/Byte trades
// ratio for random access in Fig. 13.
#pragma once

#include <vector>

#include "core/decode_scratch.hpp"
#include "core/encode_scratch.hpp"
#include "lz77/sequence.hpp"
#include "util/common.hpp"

namespace gompresso {
class ThreadPool;
}

namespace gompresso::core {

/// Width of the packed little-endian record word.
inline constexpr std::size_t kByteRecordSize = 4;
inline constexpr std::uint32_t kByteCodecMaxLiteralRun = 8191;
inline constexpr std::uint32_t kByteCodecMaxMatch = 65;
inline constexpr std::uint32_t kByteCodecMaxDistance = 8192;

/// Serialises a parsed block. Requires literal_len <= 8191,
/// match_len in {0} + [3, 65], match_dist <= 8192. Convenience wrapper
/// around the scratch overload below.
Bytes encode_block_byte(const lz77::TokenBlock& block);

/// Scratch fast path: serialises into scratch.payload (reused across
/// blocks, zero steady-state allocations). The fixed record width makes
/// any sub-range of the record array an independent lane, so with a
/// non-null `lane_pool` the record packing fans out across the pool —
/// output bytes are identical either way. Returns scratch.payload.
const Bytes& encode_block_byte(const lz77::TokenBlock& block, EncodeScratch& scratch,
                               ThreadPool* lane_pool = nullptr);

/// Parses a payload back into sequences + literal bytes.
/// Throws gompresso::Error on truncated or inconsistent payloads.
/// Convenience wrapper around the scratch-arena overload below.
lz77::TokenBlock decode_block_byte(ByteSpan payload);

/// Zero-allocation fast path: unpacks the fixed-width records directly
/// into `scratch`'s reused token block and returns a reference to
/// scratch.block (valid until the next decode with the same scratch).
/// The fixed record width makes any sub-range of the record array an
/// independent lane, so with a non-null `lane_pool` the unpack is fanned
/// out across the pool (the paper's lane-parallel record loads) — pass it
/// only when the caller is not itself running block-parallel work.
const lz77::TokenBlock& decode_block_byte(ByteSpan payload, DecodeScratch& scratch,
                                          ThreadPool* lane_pool = nullptr);

/// Upper bound on the encoded size of a block (for buffer reservations).
/// Overflow-guarded: throws rather than wrapping for absurd counts.
std::size_t max_encoded_size_byte(const lz77::TokenBlock& block);

/// Packs one sequence into the 4-byte record word (domain-checked).
std::uint32_t pack_record(const lz77::Sequence& s);

/// Packs `count` sequences as consecutive 4-byte little-endian records
/// at `dst` (which must hold count * kByteRecordSize bytes); any
/// sub-range of the record array packs independently.
void pack_records_into(const lz77::Sequence* seqs, std::size_t count,
                       std::uint8_t* dst);

/// Unpacks a 4-byte record word (throws on a malformed word).
lz77::Sequence unpack_record(std::uint32_t word);

}  // namespace gompresso::core
