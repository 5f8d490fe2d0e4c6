// Warp-parallel LZ77 back-reference resolution (paper §III-B.2 and §IV).
//
// Each data block is assigned to a single warp; the warp walks the
// block's sequences in groups of 32, one sequence per lane (Fig. 4). For
// every group the lanes:
//   (a) read their sequences and locate their literal strings via an
//       intra-warp exclusive prefix sum over literal lengths,
//   (b) locate their output positions via a second exclusive prefix sum
//       over (literal length + match length) and copy the literal strings,
//   (c) resolve their back-references using the configured strategy:
//       SC   — sequential, lane order (the paper's baseline),
//       MRR  — Fig. 5's iterative ballot/HWM algorithm,
//       DE   — single round (valid only for DE-compressed streams).
//
// Resolvability rule (MRR): a back-reference with source interval
// [src, src+len) and own output start `own` is safe to copy forward when
//     src+len <= HWM        (source fully below the gap-free high-water mark)
//  or src >= own            (pure self-reference: reads only bytes this
//                            lane itself wrote or is writing)
//  or own <= HWM            (everything before this lane is gap-free, so
//                            reads below `own` are written and reads at or
//                            above `own` are the lane's own forward copy).
// The third clause covers matches that begin below the lane's output but
// overlap its own region (dist < len with dist > literal_len); Fig. 5
// elides it, but any LZ77 stream with RLE-style runs requires it.
//
// This is the paper's GPU algorithm run on the CPU, for the figure
// reproductions (bench_fig*, strategy_tour) and their tests. Production
// decode does not use it: every strategy writes the same bytes, so
// core::decode_block_at resolves with lz77::resolve_span instead.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "lz77/sequence.hpp"
#include "simt/warp.hpp"
#include "util/common.hpp"

namespace gompresso::sim {

/// Back-reference resolution strategy (paper §IV, §V-A).
enum class Strategy : std::uint8_t {
  /// Sequential Copying: the baseline — back-references of a warp group
  /// are copied one lane at a time, in order, with no intra-group
  /// parallelism (§V-A).
  kSequentialCopy = 0,
  /// Multi-Round Resolution: iterative warp-synchronous resolution with
  /// ballot/shfl and a high-water mark (Fig. 5).
  kMultiRound = 1,
  /// Dependency-free single-round resolution; requires a stream compressed
  /// with dependency elimination (Fig. 7). One round per warp group.
  kDependencyFree = 2,
  /// The alternative MRR variant of §V-A: unresolved back-references are
  /// spilled to a global worklist and later passes (separate "kernels")
  /// resolve them, at the price of extra memory traffic
  /// (sim/mrr_multipass.hpp).
  kMultiPass = 3,
};

/// Human-readable strategy name (bench output).
inline const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kSequentialCopy: return "SC";
    case Strategy::kMultiRound: return "MRR";
    case Strategy::kDependencyFree: return "DE";
    case Strategy::kMultiPass: return "MRR-multipass";
  }
  return "?";
}

/// Availability of the in-group part [max(src, group_base), src_end) of a
/// source interval: literal intervals of the group (all written in the
/// group's literal phase) plus the lane's own forward copy. The group's
/// lanes are described by their literal intervals [own_start[j],
/// write_pos[j]), ascending in j; bytes of the group outside those
/// intervals are other lanes' back-reference output and are NOT available.
inline bool group_part_available(const std::uint64_t* own_start,
                                 const std::uint64_t* write_pos, unsigned lanes,
                                 unsigned lane, std::uint64_t group_base,
                                 std::uint64_t src, std::uint64_t src_end) {
  std::uint64_t covered = std::max(src, group_base);
  for (unsigned j = 0; j < lanes && covered < src_end; ++j) {
    if (own_start[j] > covered) break;  // gap: covered byte is a match output
    if (covered < write_pos[j]) covered = write_pos[j];
  }
  if (covered >= src_end) return true;
  // Remaining bytes must be the lane's own output (self-overlap).
  return covered >= own_start[lane];
}

/// Resolves all sequences of one block into `out`.
///
/// `sequences` and `literals` describe the block's token stream; `out`
/// must be pre-sized to exactly the block's uncompressed size. `metrics`
/// (optional) accumulates warp rounds / bytes-per-round for Fig. 9b/9c.
///
/// Throws gompresso::Error on malformed sequences (bad distance, output
/// overrun), on a DE-strategy stream that is not dependency-free, and for
/// kMultiPass (resolve_block_multipass runs that variant).
void resolve_block(std::span<const lz77::Sequence> sequences,
                   const std::uint8_t* literals, std::size_t literal_count,
                   MutableByteSpan out, Strategy strategy,
                   simt::WarpMetrics* metrics = nullptr);

}  // namespace gompresso::sim
