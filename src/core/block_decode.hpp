// Native block decode. A block payload is what the per-block size list
// delimits in Fig. 3: CRC32, mode byte, then the codec body.
// decode_block_at() is the one block decode, and two native drivers call
// it: decode_block_range() below, for bytes in RAM or arriving on a pipe
// (decompress() calls it once, the pipe decoder in core/stream.cpp once
// per batch), on the one block plan (run_block_plan,
// util/thread_pool.hpp); and serve::DecodeSession, for random access.
//
// Decode is the paper's two phases: token decode (phase 1, one codec
// per file) and LZ77 resolution (phase 2). Production resolves with one
// kernel, lz77::resolve_span, whether or not phase 1 fanned out. The
// paper's SC/MRR/DE warp strategies all write the same bytes; they run
// in the simulator (sim/decompress.hpp), which shares phase 1 through
// decode_block_tokens().
#pragma once

#include <vector>

#include "core/decode_scratch.hpp"
#include "format/header.hpp"
#include "util/common.hpp"
#include "util/thread_pool.hpp"

namespace gompresso::core {

/// Everything one decode participant (pool worker, serve prefetch task)
/// mutates while decoding blocks. Contexts are private to a participant,
/// so block decode needs no locks; scratch.stats are merged by the owner
/// once at the end.
struct BlockDecodeContext {
  DecodeScratch scratch;
  bool scratch_reserved = false;  // arena pre-sized on first block touched
};

/// Phase 1 of a block decode. Parses the payload's CRC32 (into `crc`)
/// and mode byte. A stored block is copied verbatim into `out` and the
/// result is nullptr; a coded block's token stream is decoded into
/// ctx.scratch and returned, its uncompressed size checked against
/// out.size(). `lane_pool` optionally fans the decode out by sub-block
/// lane (single-block files). Throws gompresso::Error on malformed input.
const lz77::TokenBlock* decode_block_tokens(const format::FileHeader& header,
                                            ByteSpan payload_with_crc,
                                            MutableByteSpan out,
                                            BlockDecodeContext& ctx,
                                            ThreadPool* lane_pool,
                                            std::uint32_t& crc);

/// Decodes one block payload (CRC32 + mode byte + codec body, i.e. the
/// byte range the header's size list assigns to the block) into `out`,
/// which must be sized to the block's uncompressed length; no byte
/// outside `out` is written, so neighbouring blocks of one buffer can
/// decode concurrently. `lane_pool` optionally fans phase-1 token decode
/// out by sub-block lane across a pool (single-block files); phase-2
/// LZ77 resolution always runs on the calling thread. Pass nullptr to
/// stay on the calling thread throughout. Malformed data, including
/// a token stream that writes fewer bytes than the block holds, throws
/// CorruptionError whether or not `verify_checksum` is set.
void decode_block_at(const format::FileHeader& header, ByteSpan payload_with_crc,
                     MutableByteSpan out, bool verify_checksum,
                     BlockDecodeContext& ctx, ThreadPool* lane_pool = nullptr);

/// The block-range decoder: decodes blocks [first, first + n), whose
/// payloads lie back to back in `payloads`, into their back-to-back
/// uncompressed bytes, exactly `out`. Runs the block plan over `pool`
/// with the caller's per-participant `contexts`.
void decode_block_range(const format::FileHeader& header, std::size_t first,
                        std::size_t n, ByteSpan payloads, MutableByteSpan out,
                        bool verify_checksums, ThreadPool* pool,
                        std::vector<BlockDecodeContext>& contexts);

}  // namespace gompresso::core
