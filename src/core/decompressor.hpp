// The Gompresso decompressor for a file in RAM: inter-block parallelism
// across worker threads, intra-block parallelism across sub-block lanes
// (§III-B). decompress() is one call to the block-range decoder
// (core/block_decode.hpp) on the library's one block plan (run_block_plan,
// util/thread_pool.hpp): with more than one block, workers pull whole
// blocks from the common queue; a single-block file instead fans its
// token decode out by sub-block lane (the paper's warp lanes, executed as
// real threads), then resolves with the sequential wild-copy kernel.
// Every worker owns a DecodeScratch arena and private counters, merged
// once at the end — the steady-state block loop takes no locks and
// performs no heap allocations.
#pragma once

#include "core/decode_scratch.hpp"
#include "core/options.hpp"
#include "util/common.hpp"

namespace gompresso {

/// Result of a decompression run: the data plus the decode-arena
/// counters. (The paper's warp metrics come from the simulator,
/// sim::decompress.)
struct DecompressResult {
  Bytes data;
  /// Decode-arena reuse counters (all codecs). In the steady state every
  /// block is a buffer_reuse (arenas are pre-reserved from the header
  /// bound); scratch.lane_fanouts counts blocks whose sub-block lanes
  /// were decoded thread-parallel (a single-block file on a multi-thread
  /// pool).
  core::ScratchStats scratch;
};

/// Decompresses a Gompresso file produced by gompresso::compress(),
/// with or without dependency elimination. Throws CorruptionError on
/// damaged data and FormatError on a malformed header.
DecompressResult decompress(ByteSpan file, const DecompressOptions& options = {});

/// Convenience: decompress and return only the bytes.
inline Bytes decompress_bytes(ByteSpan file, const DecompressOptions& options = {}) {
  return decompress(file, options).data;
}

}  // namespace gompresso
