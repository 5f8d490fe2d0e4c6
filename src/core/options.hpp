// Public configuration types for the Gompresso compressor/decompressor.
#pragma once

#include <cstdint>
#include <string>

#include "format/header.hpp"

namespace gompresso {

using format::Codec;

/// Per-block mode byte (follows the block's CRC32 in the payload).
inline constexpr std::uint8_t kBlockModeCoded = 0;   // codec payload
inline constexpr std::uint8_t kBlockModeStored = 1;  // verbatim bytes

/// Compression configuration. Defaults are the paper's §V settings:
/// 256 KB blocks, 8 KB window, 64 B max match, 16 sequences per
/// sub-block, CWL = 10, DE on with 1 KB minimal staleness.
struct CompressOptions {
  Codec codec = Codec::kBit;
  std::uint32_t block_size = 256 * 1024;
  std::uint32_t window_size = 8 * 1024;
  std::uint32_t min_match = 3;
  std::uint32_t max_match = 64;
  std::uint32_t tokens_per_subblock = 16;
  std::uint8_t codeword_limit = 10;
  bool dependency_elimination = true;
  /// Hash-chain search depth. The paper's GPU compressor uses "an
  /// exhaustive parallel matching technique" (§III-A); a chain walk of
  /// this depth is the CPU analogue. 1 = cheapest/greedy.
  std::uint32_t match_effort = 16;
  /// Tie-breaking ablation: prefer the oldest occurrence among
  /// equal-length matches (see MatcherConfig::prefer_older_matches).
  /// Shallower MRR nesting, slightly larger encoded distances.
  bool prefer_older_matches = false;
  /// Emit a block verbatim when the coded form would be larger
  /// (DEFLATE's "stored" mode); bounds worst-case expansion.
  bool allow_stored_blocks = true;
  /// Worker threads: 0 = shared default pool, 1 = the calling thread,
  /// n = a private pool (resolve_pool, util/thread_pool.hpp). Blocks run
  /// on the one block plan (run_block_plan).
  std::size_t num_threads = 0;

  /// Validates parameter ranges; throws gompresso::Error on violation.
  /// The byte codec's packed records additionally require
  /// window_size <= 8192 and max_match <= 65.
  void validate() const;
};

/// Decompression configuration. There is no resolution-strategy knob:
/// every strategy of the paper writes the same bytes, so production
/// decode runs one LZ77 resolver (core/block_decode.hpp); the paper's
/// SC/MRR/DE warp algorithms live in the simulator (sim/warp_lz77.hpp).
struct DecompressOptions {
  /// Worker threads: 0 = shared default pool, 1 = the calling thread,
  /// n = a private pool (resolve_pool, util/thread_pool.hpp). Blocks run
  /// on the one block plan (run_block_plan).
  std::size_t num_threads = 0;
  /// Verify per-block CRC32 of the decompressed output (on by default).
  bool verify_checksums = true;
};

}  // namespace gompresso
