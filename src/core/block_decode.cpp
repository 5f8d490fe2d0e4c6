#include "core/block_decode.hpp"

#include "core/bit_codec.hpp"
#include "core/byte_codec.hpp"
#include "core/options.hpp"
#include "lz77/ref_decoder.hpp"
#include "obs/trace.hpp"
#include "util/crc32.hpp"
#include "util/varint.hpp"

namespace gompresso::core {
namespace {

// Decode-plane metrics. The paper's cost model splits a block into
// entropy decode (phase 1) and LZ77 resolution (phase 2); the first two
// histograms below are that breakdown, per block, in microseconds, and
// crc_us times the block checksum that follows when it is verified.
struct DecodeObs {
  obs::Counter blocks = obs::registry().counter("decode.blocks", "blocks");
  obs::Counter stored_blocks =
      obs::registry().counter("decode.stored_blocks", "blocks");
  obs::Counter bytes = obs::registry().counter("decode.bytes", "bytes");
  obs::Histogram entropy_us =
      obs::registry().histogram("decode.entropy_us", "us");
  obs::Histogram resolve_us =
      obs::registry().histogram("decode.resolve_us", "us");
  obs::Histogram crc_us = obs::registry().histogram("decode.crc_us", "us");
};

DecodeObs& decode_obs() {
  static DecodeObs instance;
  return instance;
}

}  // namespace

const lz77::TokenBlock* decode_block_tokens(const format::FileHeader& header,
                                            ByteSpan payload_with_crc,
                                            MutableByteSpan out,
                                            BlockDecodeContext& ctx,
                                            ThreadPool* lane_pool,
                                            std::uint32_t& crc) {
  std::size_t p = 0;
  crc = get_u32le(payload_with_crc, p);
  check_corrupt(p < payload_with_crc.size(), "decompress: truncated block payload");
  const std::uint8_t mode = payload_with_crc[p++];
  const ByteSpan payload = payload_with_crc.subspan(p);

  if (mode == kBlockModeStored) {
    check_corrupt(payload.size() == out.size(),
                  "decompress: stored block size mismatch");
    std::copy(payload.begin(), payload.end(), out.begin());
    return nullptr;
  }
  check_corrupt(mode == kBlockModeCoded, "decompress: unknown block mode");
  // Every codec decodes into the context's scratch arena — zero
  // allocations once its buffers are warm — and optionally fans its
  // independent sub-block lanes (record-array chunks for /Byte) out
  // across `lane_pool`. Pre-size the arena on the context's first block
  // (not eagerly — most pool participants never run when blocks are
  // few), so no block decode ever grows a buffer.
  if (!ctx.scratch_reserved) {
    ctx.scratch.reserve(header.block_size, header.tokens_per_subblock);
    ctx.scratch_reserved = true;
  }
  const lz77::TokenBlock* tokens = nullptr;
  {
    obs::StageScope stage("entropy_decode", "decode", decode_obs().entropy_us);
    if (header.codec == Codec::kBit) {
      BitCodecConfig bit_config;
      bit_config.tokens_per_subblock = header.tokens_per_subblock;
      bit_config.codeword_limit = header.codeword_limit;
      tokens = &decode_block_bit(payload, bit_config, ctx.scratch, lane_pool);
    } else {
      tokens = &decode_block_byte(payload, ctx.scratch, lane_pool);
    }
  }
  check_corrupt(tokens->uncompressed_size == out.size(),
                "decompress: block size mismatch");
  return tokens;
}

void decode_block_at(const format::FileHeader& header, ByteSpan payload_with_crc,
                     MutableByteSpan out, bool verify_checksum,
                     BlockDecodeContext& ctx, ThreadPool* lane_pool) try {
  std::uint32_t stored_crc = 0;
  const lz77::TokenBlock* tokens =
      decode_block_tokens(header, payload_with_crc, out, ctx, lane_pool, stored_crc);
  if (tokens == nullptr) {
    decode_obs().stored_blocks.add(1);
  } else {
    // Phase 2: LZ77 resolution with the sequential wild-copy kernel, on
    // the calling thread even when phase 1 fanned out. It bounds-checks
    // every sequence, and the byte count closes the block: a stream that
    // stops short must not leave stale bytes behind even with the CRC off.
    obs::StageScope stage("resolve", "decode", decode_obs().resolve_us);
    const std::uint64_t written =
        lz77::resolve_span(tokens->sequences, tokens->literals.data(),
                           tokens->literals.size(), out, /*base=*/0);
    check_corrupt(written == out.size(), "decompress: block size mismatch");
  }
  decode_obs().blocks.add(1);
  decode_obs().bytes.add(out.size());

  if (verify_checksum) {
    obs::StageScope stage("crc", "decode", decode_obs().crc_us);
    check_corrupt(crc32(ByteSpan(out.data(), out.size())) == stored_crc,
                  "decompress: block checksum mismatch (corrupt data)");
  }
} catch (const Error& e) {
  // This is the typed-error boundary for block data: the codec and
  // resolver internals (bit/byte decode, LZ77 resolution) raise
  // plain Error on malformed payloads. Anything untyped that escapes a
  // block decode is data-level damage confined to this block; already-
  // typed failures (an IoError from a faulting mmap-backed span, say)
  // keep their class.
  if (e.kind() != ErrorKind::kConfig) throw;
  throw CorruptionError(e.what());
}

void decode_block_range(const format::FileHeader& header, std::size_t first,
                        std::size_t n, ByteSpan payloads, MutableByteSpan out,
                        bool verify_checksums, ThreadPool* pool,
                        std::vector<BlockDecodeContext>& contexts) {
  // Locate every block payload from the size list (inter-block
  // parallelism needs no scanning, Fig. 3).
  std::vector<std::size_t> offsets(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    offsets[i + 1] = offsets[i] +
                     static_cast<std::size_t>(header.block_compressed_sizes[first + i]);
  }
  check(offsets[n] == payloads.size(), "decompress: block range payload mismatch");
  run_block_plan(pool, n, contexts,
                 [&](BlockDecodeContext& ctx, std::size_t i, ThreadPool* lane_pool) {
                   const std::size_t out_begin = i * header.block_size;
                   decode_block_at(
                       header, payloads.subspan(offsets[i], offsets[i + 1] - offsets[i]),
                       out.subspan(out_begin, std::min<std::size_t>(
                                                  header.block_size, out.size() - out_begin)),
                       verify_checksums, ctx, lane_pool);
                 });
}

}  // namespace gompresso::core
