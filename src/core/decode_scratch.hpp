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

#include "core/decode_tables.hpp"
#include "lz77/sequence.hpp"

namespace gompresso::core {

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

/// Reuse counters exposed through DecompressResult.
struct ScratchStats {
  std::uint64_t blocks = 0;         // blocks decoded through a scratch
  std::uint64_t buffer_reuses = 0;  // blocks needing no buffer growth
  std::uint64_t table_builds = 0;   // fused Huffman decode-table (re)builds
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
  std::vector<std::uint8_t> litlen_lengths;
  std::vector<std::uint8_t> offset_lengths;
  FusedTables tables;
  ScratchStats stats;

  /// Pre-sizes the buffers to the worst case any block of
  /// `max_block_size` uncompressed bytes can need — the CPU analogue of
  /// the GPU's pre-allocated device buffers. After this, every block
  /// decode is allocation-free from the first block on (buffer_reuses ==
  /// blocks). A non-terminator sequence emits at least min-match (3)
  /// bytes, bounding the sequence count.
  void reserve(std::uint32_t max_block_size, std::uint32_t tokens_per_subblock) {
    const std::size_t max_seq = max_block_size / 3 + 2;
    const std::size_t max_lanes =
        max_seq / std::max<std::uint32_t>(1, tokens_per_subblock) + 1;
    block.sequences.reserve(max_seq);
    block.literals.reserve(max_block_size);
    subblocks.reserve(max_lanes);
  }
};

}  // namespace gompresso::core
