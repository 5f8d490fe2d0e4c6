// Per-worker encode scratch arena — the compression-side sibling of
// DecodeScratch.
//
// compress() is the round-trip bottleneck now that decode runs through
// its scratch arena; this gives the encoder the same discipline. Each
// worker thread owns one EncodeScratch whose buffers — matcher hash/chain
// tables, parsed token block, histograms, package-merge workspace,
// canonical-code storage, fused emit tables and bit writers — are reused
// across every block the worker compresses.
// The matcher tables get a cheap generation reset per block (see
// matcher.hpp) instead of a 2^hash_bits fill. After reserve(), a block
// encode performs zero heap allocations; the counters in
// EncodeScratchStats prove it and bench_encode_hotpath asserts on them
// (tests additionally assert with a real allocation-counting hook).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "bitstream/bit_writer.hpp"
#include "core/encode_tables.hpp"
#include "huffman/code_builder.hpp"
#include "lz77/matcher.hpp"
#include "lz77/sequence.hpp"

namespace gompresso::core {

/// Reuse counters exposed through CompressStats (mirrors ScratchStats on
/// the decode side).
struct EncodeScratchStats {
  std::uint64_t blocks = 0;         // blocks encoded through a scratch
  std::uint64_t buffer_reuses = 0;  // blocks needing no buffer growth
  std::uint64_t table_builds = 0;   // canonical-code builds
  std::uint64_t matcher_inits = 0;  // matcher table (re)constructions —
                                    // steady state: 1, generation resets
                                    // cover every later block
  std::uint64_t lane_fanouts = 0;   // blocks whose sub-block token coding
                                    // ran thread-parallel

  void merge(const EncodeScratchStats& other) {
    blocks += other.blocks;
    buffer_reuses += other.buffer_reuses;
    table_builds += other.table_builds;
    matcher_inits += other.matcher_inits;
    lane_fanouts += other.lane_fanouts;
  }
};

/// One sub-block's encode-side bookkeeping (the block header's size-list
/// entry), filled by the bit codec.
struct SubblockEnc {
  std::uint64_t bits = 0;  // compressed size in bits
  std::uint32_t n_sequences = 0;
  std::uint32_t n_literals = 0;
};

/// All mutable state a block encode needs, owned by one worker thread.
struct EncodeScratch {
  // -- parse stage -------------------------------------------------------
  std::optional<lz77::ChainMatcher> matcher;
  std::uint32_t matcher_depth = 0;
  lz77::TokenBlock block;          // parse output, reused per block
  lz77::DeConstraint de_constraint;  // DE interval storage, reused per block

  // -- shared ------------------------------------------------------------
  std::vector<SubblockEnc> subblocks;
  Bytes payload;  // the codec's encoded block payload
  EncodeScratchStats stats;
  /// Set by the caller when a stage outside the codec (the parse) grew a
  /// scratch buffer for the current block; the codec folds it into the
  /// buffer_reuses accounting and clears it.
  bool pending_growth = false;
  /// Lazy-reservation latch for callers that size a scratch on its first
  /// block (compress() workers; see EncodeScratch::reserve).
  bool reserved = false;

  // -- bit codec ---------------------------------------------------------
  std::vector<std::uint64_t> litlen_freqs;
  std::vector<std::uint64_t> offset_freqs;
  std::vector<std::uint8_t> litlen_lengths;
  std::vector<std::uint8_t> offset_lengths;
  std::vector<huffman::CodeEntry> litlen_codes;
  std::vector<huffman::CodeEntry> offset_codes;
  huffman::CodeBuildWorkspace code_ws;
  FusedEmitTables emit;
  BitWriter stream;  // token bitstream
  BitWriter trees;   // nibble-packed code lengths

  /// Returns the reusable chain matcher, (re)constructing it only when
  /// the configuration changed (counted in stats.matcher_inits; in the
  /// steady state the same matcher serves every block via its cheap
  /// generation reset).
  lz77::ChainMatcher& chain_matcher(const lz77::MatcherConfig& config,
                                    std::uint32_t depth) {
    const bool match = matcher.has_value() && matcher_depth == depth &&
                       matcher->config() == config;
    if (!match) {
      matcher.emplace(config, depth);
      matcher_depth = depth;
      ++stats.matcher_inits;
    }
    return *matcher;
  }

  /// Pre-sizes every buffer for blocks of up to `max_block_size`
  /// uncompressed bytes, so every block encode from the first one on is
  /// allocation-free (buffer_reuses == blocks). `bit` pre-sizes the
  /// Huffman histogram/code/emit storage and the stream writer; the byte
  /// codec needs neither (parse + payload buffers only).
  void reserve(std::uint32_t max_block_size, std::uint32_t tokens_per_subblock,
               bool bit = true) {
    // Worst-case sequence count: every non-terminator sequence covers >=
    // 3 input bytes (a match), plus the literal-run splits of the
    // byte codec's record domain (every 8191 literals), plus terminator.
    const std::size_t max_seq = max_block_size / 3 + max_block_size / 8191 + 2;
    const std::size_t max_lanes =
        max_seq / std::max<std::uint32_t>(1, tokens_per_subblock) + 1;
    block.sequences.reserve(max_seq);
    block.literals.reserve(max_block_size);
    de_constraint.forbidden.reserve(64);  // at most group_size - 1 intervals
    subblocks.reserve(max_lanes);
    // Worst-case stream bits: 15 per literal (CWL cap) + 48 per match
    // token; the payload additionally holds the sub-block table (<= 24
    // bytes/lane) and the tree section.
    // One bound covers both codecs' payloads: the bit codec's stream +
    // table + trees and the byte codec's records + literals.
    payload.reserve(2 * std::size_t{max_block_size} + 8 * max_seq + 24 * max_lanes +
                    4096);
    if (bit) {
      const std::size_t max_stream_bytes =
          (15ull * max_block_size + 48ull * max_seq) / 8 + 64;
      stream.reserve(max_stream_bytes + 16);
      trees.reserve(512);
      litlen_freqs.reserve(kLitLenAlphabet);
      offset_freqs.reserve(kOffsetAlphabet);
      litlen_lengths.reserve(kLitLenAlphabet);
      offset_lengths.reserve(kOffsetAlphabet);
      litlen_codes.reserve(kLitLenAlphabet);
      offset_codes.reserve(kOffsetAlphabet);
      code_ws.reserve(kLitLenAlphabet, 15);
    }
  }

  /// Capacity fingerprint of every growable buffer — equal snapshots
  /// before and after a block prove the block allocated nothing (the
  /// buffer_reuses signal; package-merge workspace included).
  using CapSnapshot = std::array<std::size_t, 19>;
  CapSnapshot capacities() const {
    std::size_t ws_levels = 0;
    for (const auto& l : code_ws.levels) ws_levels += l.capacity();
    return {block.sequences.capacity(),
            block.literals.capacity(),
            de_constraint.forbidden.capacity(),
            subblocks.capacity(),
            payload.capacity(),
            stream.capacity(),
            trees.capacity(),
            litlen_freqs.capacity(),
            offset_freqs.capacity(),
            litlen_lengths.capacity(),
            offset_lengths.capacity(),
            litlen_codes.capacity(),
            offset_codes.capacity(),
            code_ws.active.capacity(),
            code_ws.leaves.capacity(),
            code_ws.levels.capacity(),
            ws_levels,
            code_ws.packages.capacity(),
            code_ws.stack.capacity()};
  }
};

}  // namespace gompresso::core
