// Per-worker decode scratch arena.
//
// The block decode loop is the decompressor's hottest path; on the GPU it
// runs out of pre-sized on-chip buffers with no allocator in sight. This
// arena gives the CPU implementation the same discipline: each worker
// thread owns one DecodeScratch whose buffers (token block, sub-block
// layout, code-length vectors, fused decode tables) are reused across
// every block the worker decodes. After the first block warms the
// capacities, a block decode performs zero heap allocations — the
// `buffer_reuses` counter in ScratchStats proves it, and
// bench_decode_hotpath asserts on it.
//
// The fused tables are additionally cached against a byte-exact copy of
// the serialized tree section: blocks that ship identical trees (common
// for stationary sources) skip the table rebuild entirely.
#pragma once

#include <cstdint>
#include <vector>

#include "ans/tans.hpp"
#include "core/decode_tables.hpp"
#include "lz77/sequence.hpp"

namespace gompresso::core {

/// Width of the packed little-endian LZ77 record word shared by the
/// byte and tans codecs (see core/byte_codec.hpp for the field layout).
/// Defined here so the scratch record arena and both codecs size against
/// the same constant.
inline constexpr std::size_t kByteRecordSize = 4;

/// One sub-block lane's slice of the block: where its bits start and
/// where its outputs go. Computed once from the block header's size list,
/// then each lane decodes independently (the paper's warp lanes).
struct SubblockLayout {
  std::uint64_t bit_offset = 0;  // absolute first bit of the lane's stream
  std::uint64_t bits = 0;        // compressed size in bits
  std::uint32_t n_sequences = 0;
  std::uint32_t n_literals = 0;
  std::uint32_t seq_base = 0;  // output slot in TokenBlock::sequences
  std::uint32_t lit_base = 0;  // output slot in TokenBlock::literals
};

/// The tans codec's equivalent of SubblockLayout: one lane owns a pair of
/// tANS streams (packed records + literals) at byte granularity, plus the
/// same output slots. Computed up front from the sub-block table so every
/// lane decodes independently.
struct TansLaneLayout {
  std::uint64_t record_offset = 0;   // absolute byte offset of the record stream
  std::uint64_t record_bytes = 0;    // encoded record-stream size
  std::uint64_t literal_offset = 0;  // absolute byte offset of the literal stream
  std::uint64_t literal_bytes = 0;   // encoded literal-stream size
  std::uint32_t n_sequences = 0;
  std::uint32_t n_literals = 0;
  std::uint32_t seq_base = 0;  // output slot in TokenBlock::sequences
  std::uint32_t lit_base = 0;  // output slot in TokenBlock::literals
};

/// Reuse counters exposed through DecompressResult.
struct ScratchStats {
  std::uint64_t blocks = 0;         // blocks decoded through a scratch
  std::uint64_t buffer_reuses = 0;  // blocks needing no buffer growth
  std::uint64_t table_builds = 0;   // decode-table (re)builds: fused Huffman
                                    // tables or tANS models
  std::uint64_t table_reuses = 0;   // cached-tree hits (bit codec)
  std::uint64_t lane_fanouts = 0;   // blocks whose lanes ran thread-parallel

  void merge(const ScratchStats& other) {
    blocks += other.blocks;
    buffer_reuses += other.buffer_reuses;
    table_builds += other.table_builds;
    table_reuses += other.table_reuses;
    lane_fanouts += other.lane_fanouts;
  }
};

/// All mutable state a block decode needs, owned by one worker thread.
struct DecodeScratch {
  lz77::TokenBlock block;
  std::vector<SubblockLayout> subblocks;
  std::vector<TansLaneLayout> tans_lanes;
  std::vector<std::uint8_t> litlen_lengths;
  std::vector<std::uint8_t> offset_lengths;
  FusedTables tables;
  /// Decoded packed-record bytes (tans lanes decode their record stream
  /// into a disjoint slice here before unpacking into block.sequences).
  std::vector<std::uint8_t> record_bytes;
  /// Per-block shared tANS models, rebuilt in place (decode side only).
  ans::Model record_model;
  ans::Model literal_model;
  ScratchStats stats;

  /// Pre-sizes the buffers to the worst case any block of
  /// `max_block_size` uncompressed bytes can need — the CPU analogue of
  /// the GPU's pre-allocated device buffers. After this, every block
  /// decode is allocation-free from the first block on (buffer_reuses ==
  /// blocks). A non-terminator sequence emits at least min-match (3)
  /// bytes, bounding the sequence count. `tans` additionally pre-sizes
  /// the record arena and the model tables (the models are
  /// self-describing, so size for the largest permitted table).
  void reserve(std::uint32_t max_block_size, std::uint32_t tokens_per_subblock,
               bool tans = false) {
    const std::size_t max_seq = max_block_size / 3 + 2;
    const std::size_t max_lanes =
        max_seq / std::max<std::uint32_t>(1, tokens_per_subblock) + 1;
    block.sequences.reserve(max_seq);
    block.literals.reserve(max_block_size);
    subblocks.reserve(max_lanes);
    if (tans) {
      tans_lanes.reserve(max_lanes);
      record_bytes.reserve(max_seq * kByteRecordSize);
      record_model.reserve_decode(ans::kMaxTableLog);
      literal_model.reserve_decode(ans::kMaxTableLog);
    }
  }
};

}  // namespace gompresso::core
