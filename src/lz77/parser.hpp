// Greedy LZ77 sequence parser, with optional Dependency Elimination.
//
// This is the compression-side half of the paper's §IV. In normal mode it
// is a standard greedy LZ77 parse producing (literal string,
// back-reference) sequences. With `dependency_elimination` enabled it
// implements Fig. 7: for every group of `group_size` (= warp size = 32)
// sequences that will later be decompressed by one warp, matches may only
// reference data strictly below the warp high-water mark (warpHWM) — the
// input cursor position at which the group started. This guarantees that
// no back-reference depends on the output of another back-reference
// resolved by the same warp group, so decompression resolves every group
// in a single round.
//
// Two entry points per matcher type:
//   * parse_block() — constructs a fresh matcher and returns a fresh
//     TokenBlock (the original interface, used by the baselines).
//   * parse_block_into() — reuses a caller-owned matcher (cheap
//     generational reset, see matcher.hpp) and a caller-owned TokenBlock
//     (cleared, capacity kept). This is the encode fast path's
//     allocation-free variant; it produces bit-identical sequences.
#pragma once

#include <cstdint>

#include "lz77/matcher.hpp"
#include "lz77/sequence.hpp"

namespace gompresso::lz77 {

/// Parser configuration. `group_size` only matters with DE enabled.
struct ParserOptions {
  MatcherConfig matcher;
  bool dependency_elimination = false;
  std::uint32_t group_size = 32;
  /// When non-zero, a literal run reaching this length is closed with a
  /// zero-match sequence (the byte codec's fixed-width records bound the
  /// literal-length field). Split sequences occupy a decoder lane and are
  /// counted against the warp group like any other sequence.
  std::uint32_t max_literal_run = 0;
};

/// Statistics gathered during a parse (used by the DE benchmarks).
/// Gathering them is not free: with DE enabled, every literal position
/// runs a second, unconstrained matcher probe to count
/// matches_rejected_by_hwm — so pass stats = nullptr on the hot path.
struct ParseStats {
  std::uint64_t sequences = 0;
  std::uint64_t match_bytes = 0;
  std::uint64_t literal_bytes = 0;
  std::uint64_t matches_rejected_by_hwm = 0;  // DE only: matches shortened/lost
};

/// Parses one data block into sequences using the supplied matcher type.
/// The matcher is constructed fresh per block (blocks compress
/// independently, §III-A).
template <typename Matcher, typename... MatcherArgs>
TokenBlock parse_block(ByteSpan block, const ParserOptions& options,
                       ParseStats* stats, MatcherArgs&&... matcher_args);

/// Parses one data block into `out` (cleared, capacity reused) with a
/// caller-owned matcher reset via its cheap generational begin_block().
/// `de_ws`, when non-null, is a caller-owned DeConstraint whose interval
/// storage is reused across blocks (the last piece of an allocation-free
/// steady state). Decisions are identical to parse_block with a fresh
/// matcher. 64-byte aligned, like ChainMatcher::find, so compress speed
/// does not move with the size of code linked before it.
template <typename Matcher>
[[gnu::aligned(64)]] void parse_block_into(ByteSpan block, const ParserOptions& options,
                                           Matcher& matcher, TokenBlock& out,
                                           ParseStats* stats = nullptr,
                                           DeConstraint* de_ws = nullptr);

/// Convenience wrapper using the single-slot HashMatcher (the Gompresso
/// configuration).
TokenBlock parse(ByteSpan block, const ParserOptions& options,
                 ParseStats* stats = nullptr);

/// Convenience wrapper using the ChainMatcher with the given depth (the
/// deflate_like / zstd_like baseline configuration).
TokenBlock parse_chained(ByteSpan block, const ParserOptions& options,
                         std::uint32_t chain_depth, ParseStats* stats = nullptr);

// ---------------------------------------------------------------------------
// Template implementation

template <typename Matcher>
void parse_block_into(ByteSpan block, const ParserOptions& options, Matcher& matcher,
                      TokenBlock& out, ParseStats* stats, DeConstraint* de_ws) {
  check(block.size() <= kNoLimit / 2, "parse: block too large");
  matcher.begin_block(static_cast<std::uint32_t>(block.size()));

  out.sequences.clear();
  out.literals.clear();
  out.uncompressed_size = static_cast<std::uint32_t>(block.size());
  if (out.literals.capacity() < block.size() / 4) out.literals.reserve(block.size() / 4);

  const std::uint32_t size = static_cast<std::uint32_t>(block.size());
  const bool de = options.dependency_elimination;
  std::uint32_t pos = 0;
  std::uint32_t literal_start = 0;
  // Fig. 7 line 3: the warpHWM is fixed at the input position where the
  // current 32-sequence group starts (== the group's output base during
  // decompression) and only advances when a group completes. The
  // constraint additionally tracks the output intervals of the group's
  // already-emitted back-references: those are the only forbidden source
  // bytes, since all of a group's *literals* are written before any of
  // its back-references resolve (§III-B).
  DeConstraint local_constraint;
  DeConstraint& constraint = de_ws != nullptr ? *de_ws : local_constraint;
  constraint.begin_group(0);       // fresh per-block state, storage reused
  std::uint32_t seq_in_group = 0;  // Fig. 7 loop counter `s`

  // Closes the current literal string with the given match (possibly
  // none) and advances the group bookkeeping.
  auto emit_sequence = [&](std::uint32_t match_len, std::uint32_t match_dist) {
    Sequence seq;
    seq.literal_len = pos - literal_start;
    seq.match_len = match_len;
    seq.match_dist = match_dist;
    out.sequences.push_back(seq);
    out.literals.insert(out.literals.end(), block.begin() + literal_start,
                        block.begin() + pos);
    if (de && match_len != 0) constraint.add_backref(pos, pos + match_len);
    pos += match_len;
    literal_start = pos;
    if (++seq_in_group == options.group_size) {
      seq_in_group = 0;
      constraint.begin_group(pos);  // next group starts at the cursor
    }
    if (stats) {
      ++stats->sequences;
      stats->match_bytes += match_len;
    }
  };

  while (pos < size) {
    const Match match =
        matcher.find(block, pos, /*start_limit=*/pos, de ? &constraint : nullptr);
    if (match.found()) {
      // Fig. 7 line 11: update the dictionary with the back-reference.
      matcher.insert_span(block, pos, pos + match.len);
      emit_sequence(match.len, pos - match.pos);
    } else {
      if (stats && de) {
        // Count positions where a match exists without the DE constraint
        // but not with it (the ratio cost of DE).
        if (matcher.find(block, pos, pos, nullptr).found()) {
          ++stats->matches_rejected_by_hwm;
        }
      }
      // Fig. 7 lines 16-19: extend the literal string.
      matcher.insert(block, pos);
      ++pos;
      if (stats) ++stats->literal_bytes;
      if (options.max_literal_run != 0 &&
          pos - literal_start == options.max_literal_run && pos < size) {
        emit_sequence(0, 0);  // split an over-long literal run
      }
    }
  }
  // Terminating sequence: the tail literal string with no back-reference.
  emit_sequence(0, 0);
}

template <typename Matcher, typename... MatcherArgs>
TokenBlock parse_block(ByteSpan block, const ParserOptions& options,
                       ParseStats* stats, MatcherArgs&&... matcher_args) {
  Matcher matcher(options.matcher, std::forward<MatcherArgs>(matcher_args)...);
  TokenBlock out;
  parse_block_into(block, options, matcher, out, stats);
  return out;
}

}  // namespace gompresso::lz77
