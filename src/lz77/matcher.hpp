// Sliding-window match finders.
//
// Two matchers are provided:
//
//  * HashMatcher — a single-slot trigram hash table, the design the paper
//    adopted from LZ4 (§IV-B: "the compressor of the LZ4 library uses a
//    hash table ... The key in the hash table is a string of three bytes
//    (trigram). The value is the most recent position"). It implements the
//    paper's "minimal staleness" replacement policy: an existing entry is
//    only replaced by a more recent occurrence when it has fallen more
//    than `staleness` bytes behind the cursor, which keeps entries that
//    are likely to lie below the warp high-water mark available to the
//    Dependency-Elimination parser.
//
//  * ChainMatcher — classic zlib-style hash chains with a configurable
//    search depth, used by compress() and the deflate_like / zstd_like
//    baselines where compression ratio (not parse speed) is the point of
//    comparison.
//
// Both matchers accept a start limit (candidate match positions must be
// < start_limit, normally the cursor) and an optional DeConstraint that
// restricts *source intervals* for Dependency Elimination (§IV-B).
//
// Table reuse across blocks (the encode fast path): blocks compress
// independently, so each new block must see an empty table — but zeroing
// 2^hash_bits entries per block is pure overhead. Both matchers therefore
// store *generation-biased* positions: entry = base + pos, where `base`
// advances past the previous block's positions on begin_block(). An entry
// below the current base belongs to an earlier generation and reads as
// empty, so the epoch bump IS the table clear. When the 32-bit bias would
// overflow (once per ~4 GiB parsed through one matcher) a real fill runs.
// Match decisions are bit-identical to a freshly constructed matcher.
//
// The hot methods (find/insert/match_length) are defined inline here so
// the parser template's per-byte probe loop inlines them; keeping them in
// a separate TU cost ~8% of single-thread parse throughput.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "util/common.hpp"

namespace gompresso::lz77 {

inline constexpr std::uint32_t kNoLimit = std::numeric_limits<std::uint32_t>::max();

/// Dependency-Elimination source constraint for the current warp group.
///
/// DE forbids back-references "that would depend on other back-references
/// within the same warp" (§IV-B). A source byte is therefore usable when
/// it lies below the warp high-water mark (output of earlier groups,
/// fully resolved before this group's back-reference phase) or inside a
/// *literal* region of the current group (all of a group's literal
/// strings are written before any of its back-references, §III-B step b).
/// Only the output intervals of back-references already emitted in the
/// current group are forbidden; `forbidden` lists them in ascending
/// order (at most warp_size-1 entries).
struct DeConstraint {
  std::uint32_t warp_hwm = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> forbidden;  // [start, end)

  /// Starts a new warp group at input position `hwm`.
  void begin_group(std::uint32_t hwm) {
    warp_hwm = hwm;
    forbidden.clear();
  }

  /// Records an emitted back-reference's output interval.
  void add_backref(std::uint32_t start, std::uint32_t end) {
    forbidden.emplace_back(start, end);
  }

  /// Longest usable contiguous source run starting at `c` (0 if `c`
  /// itself is forbidden). The run may extend past the cursor into the
  /// candidate match's own output (self-overlap is resolved by the lane's
  /// own forward copy).
  ///
  /// This is called for every match probe during a DE parse, so the two
  /// common cases are O(1): candidates past the group's last emitted
  /// back-reference (the RLE probe, fresh literals) and candidates below
  /// the first one (prior-group output).
  std::uint32_t allowed_cap(std::uint32_t c) const {
    if (forbidden.empty() || c >= forbidden.back().second) return kNoLimit;
    if (c < forbidden.front().first) return forbidden.front().first - c;
    for (const auto& [s, e] : forbidden) {
      if (c >= s && c < e) return 0;
      if (s > c) return s - c;  // sorted: first interval past c bounds the run
    }
    return kNoLimit;
  }
};

/// A match found in the window: absolute source position and length.
struct Match {
  std::uint32_t pos = 0;
  std::uint32_t len = 0;
  bool found() const { return len != 0; }
};

/// Configuration shared by the matchers.
struct MatcherConfig {
  std::uint32_t window_size = 8 * 1024;  // §V: 8 KB sliding window
  std::uint32_t min_match = 3;
  std::uint32_t max_match = 64;          // §V: 64-byte lookahead
  std::uint32_t staleness = 1024;        // §IV-B: 1 KB minimal staleness
  std::uint32_t hash_bits = 15;
  /// ChainMatcher tie-breaking: prefer the *oldest* occurrence among
  /// equal-length candidates. The paper's GPU compressor scans the whole
  /// window ("an exhaustive parallel matching technique", §III-A), which
  /// keeps the first — oldest — longest match; older sources both reduce
  /// intra-warp nesting depth under MRR and fall below the warp HWM more
  /// often under DE. Distance cost: none for the fixed-width byte codec,
  /// a few extra-bits for the bit codec's distance buckets.
  bool prefer_older_matches = false;

  /// Wholesale comparison (EncodeScratch reuses a matcher only while its
  /// config is unchanged — a new field here is picked up automatically).
  friend bool operator==(const MatcherConfig&, const MatcherConfig&) = default;
};

/// Longest common extension of input[a..] and input[b..], capped.
inline std::uint32_t match_length(ByteSpan input, std::uint32_t a, std::uint32_t b,
                                  std::uint32_t cap) {
  const std::uint8_t* pa = input.data() + a;
  const std::uint8_t* pb = input.data() + b;
  std::uint32_t len = 0;
  // 8-byte-at-a-time comparison, then byte tail.
  while (len + 8 <= cap) {
    std::uint64_t va, vb;
    std::memcpy(&va, pa + len, 8);
    std::memcpy(&vb, pb + len, 8);
    if (va != vb) {
      const std::uint64_t diff = va ^ vb;
      return len + static_cast<std::uint32_t>(std::countr_zero(diff) >> 3);
    }
    len += 8;
  }
  while (len < cap && pa[len] == pb[len]) ++len;
  return len;
}

namespace detail {

// Fibonacci-hash of the three bytes at `p` (the trigram key of §IV-B).
inline std::uint32_t trigram_hash(const std::uint8_t* p, unsigned hash_bits) {
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - hash_bits);
}

// Same hash via one 4-byte load when the input has the headroom (the
// common case everywhere but the last three positions of a block).
inline std::uint32_t trigram_hash_at(ByteSpan input, std::uint32_t pos,
                                     unsigned hash_bits) {
  if (std::size_t{pos} + 4 <= input.size()) {
    std::uint32_t v;
    std::memcpy(&v, input.data() + pos, 4);  // little-endian hosts
    return ((v & 0xFFFFFFu) * 2654435761u) >> (32 - hash_bits);
  }
  return trigram_hash(input.data() + pos, hash_bits);
}

}  // namespace detail

/// Single-slot trigram hash matcher with the minimal-staleness policy.
class HashMatcher {
 public:
  explicit HashMatcher(const MatcherConfig& config);

  /// Resets all table state (start of a new independent block) with a
  /// full fill. begin_block() is the cheap per-block variant.
  void reset();

  /// Starts a new independent block of `block_size` bytes: advances the
  /// generation bias so every existing entry reads as empty. Falls back
  /// to a full fill when the 32-bit bias would overflow. Returns true
  /// when the cheap epoch bump sufficed (the scratch reuse signal).
  bool begin_block(std::uint32_t block_size);

  /// Finds the longest match for input[pos..] subject to the limits.
  /// `de` (optional) applies the Dependency-Elimination source constraint.
  Match find(ByteSpan input, std::uint32_t pos, std::uint32_t start_limit,
             const DeConstraint* de = nullptr) const {
    Match best;
    if (pos + config_.min_match > input.size()) return best;
    const std::uint32_t max_cap = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(config_.max_match, input.size() - pos));

    auto consider = [&](std::uint32_t cand) {
      if (cand == kEmpty || cand >= start_limit) return;
      if (pos - cand > config_.window_size) return;
      std::uint32_t cap = max_cap;
      if (de != nullptr) cap = std::min<std::uint32_t>(cap, de->allowed_cap(cand));
      if (cap < config_.min_match || cap <= best.len) return;
      const std::uint32_t len = match_length(input, cand, pos, cap);
      if (len >= config_.min_match && len > best.len) {
        best.pos = cand;
        best.len = len;
      }
    };

    const std::uint32_t slot = table_[detail::trigram_hash_at(input, pos, config_.hash_bits)];
    consider(slot >= base_ ? slot - base_ : kEmpty);
    // RLE probe: the immediately preceding byte. Runs compress as
    // distance-1 overlapping matches; the minimal-staleness table
    // deliberately keeps *old* entries, so without this probe runs would
    // only be found when the table entry happens to be adjacent.
    if (pos >= 1) consider(pos - 1);
    return best;
  }

  /// Registers position `pos` in the table (subject to staleness policy).
  void insert(ByteSpan input, std::uint32_t pos) {
    if (pos + 3 > input.size()) return;
    std::uint32_t& slot = table_[detail::trigram_hash_at(input, pos, config_.hash_bits)];
    // Minimal-staleness replacement (§IV-B): keep the older entry unless
    // it has fallen more than `staleness` bytes behind the cursor. Older
    // entries are more likely to lie below the warp HWM and therefore to
    // be usable by the DE parser. staleness == 0 disables the policy
    // (always replace, the stock LZ4 behaviour). Entries below the
    // generation bias belong to an earlier block and read as empty.
    if (slot >= base_ && config_.staleness != 0) {
      if (pos - (slot - base_) <= config_.staleness) return;
    }
    slot = base_ + pos;
  }

  /// Inserts every position in [begin, end) (the staleness policy makes
  /// each slot update data-dependent, so this is the plain loop).
  void insert_span(ByteSpan input, std::uint32_t begin, std::uint32_t end) {
    for (std::uint32_t p = begin; p < end; ++p) insert(input, p);
  }

  const MatcherConfig& config() const { return config_; }

 private:
  MatcherConfig config_;
  std::vector<std::uint32_t> table_;  // 0 or generation-biased position
  std::uint32_t base_ = 1;            // current generation bias
  std::uint32_t block_span_ = 0;      // positions the current block may use
  static constexpr std::uint32_t kEmpty = kNoLimit;
};

/// Hash-chain matcher (zlib-style) with bounded chain walk.
class ChainMatcher {
 public:
  ChainMatcher(const MatcherConfig& config, std::uint32_t max_chain_depth);

  /// Full-fill reset; see HashMatcher::reset().
  void reset();

  /// Cheap generation reset; see HashMatcher::begin_block().
  bool begin_block(std::uint32_t block_size);

  // 64-byte aligned, like every hot kernel emitted out of line, so its
  // speed does not move with the size of code linked before it.
  [[gnu::aligned(64)]] Match find(ByteSpan input, std::uint32_t pos,
                                  std::uint32_t start_limit,
                                  const DeConstraint* de = nullptr) const {
    Match best;
    if (pos + config_.min_match > input.size()) return best;
    const std::uint32_t head = head_[detail::trigram_hash_at(input, pos, config_.hash_bits)];
    std::uint32_t cand = head >= base_ ? head - base_ : kEmpty;
    const std::uint32_t max_cap = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(config_.max_match, input.size() - pos));

    const bool prefer_older = config_.prefer_older_matches;
    std::uint32_t depth = max_chain_depth_;
    while (cand != kEmpty && depth-- > 0) {
      if (pos - cand > config_.window_size) break;  // chain left the window
      if (cand < start_limit) {
        std::uint32_t cap = max_cap;
        if (de != nullptr) cap = std::min<std::uint32_t>(cap, de->allowed_cap(cand));
        if (cap >= config_.min_match) {
          // Improvement guard (skipped under prefer_older, whose ">="
          // keeps equal-length candidates): a candidate that can beat
          // best.len must match at least best.len + 1 bytes, so its byte
          // at offset best.len must agree — one compare rejects most of
          // the chain without a full match_length walk. Results are
          // identical: rejected candidates could never update `best`.
          const bool plausible =
              prefer_older ||
              (cap > best.len && (best.len == 0 || input.data()[cand + best.len] ==
                                                       input.data()[pos + best.len]));
          if (plausible) {
            const std::uint32_t len = match_length(input, cand, pos, cap);
            // The chain runs recent -> old, so ">=" keeps the oldest
            // among equal-length candidates (exhaustive-matcher
            // behaviour).
            if (len >= config_.min_match &&
                (prefer_older ? len >= best.len : len > best.len)) {
              best.pos = cand;
              best.len = len;
              if (!prefer_older && len == max_cap) break;  // cannot improve
            }
          }
        }
      }
      const std::uint32_t link = prev_[cand & (config_.window_size - 1)];
      const std::uint32_t next = link >= base_ ? link - base_ : kEmpty;
      if (next != kEmpty && next >= cand) break;  // stale ring slot, stop
      cand = next;
    }
    // RLE probe (see HashMatcher::find).
    if (pos >= 1 && pos - 1 < start_limit) {
      std::uint32_t cap = max_cap;
      if (de != nullptr) cap = std::min<std::uint32_t>(cap, de->allowed_cap(pos - 1));
      if (cap >= config_.min_match && cap > best.len) {
        const std::uint32_t len = match_length(input, pos - 1, pos, cap);
        if (len >= config_.min_match && len > best.len) {
          best.pos = pos - 1;
          best.len = len;
        }
      }
    }
    return best;
  }

  void insert(ByteSpan input, std::uint32_t pos) {
    if (pos + 3 > input.size()) return;
    std::uint32_t& slot = head_[detail::trigram_hash_at(input, pos, config_.hash_bits)];
    prev_[pos & (config_.window_size - 1)] = slot;
    slot = base_ + pos;
  }

  /// Inserts every position in [begin, end) — identical table state to
  /// calling insert() per position. Consecutive trigrams share bytes, so
  /// one 8-byte load feeds six hash computations (the match-region
  /// dictionary update is a large share of parse time).
  void insert_span(ByteSpan input, std::uint32_t begin, std::uint32_t end) {
    const std::uint32_t mask = config_.window_size - 1;
    const unsigned shift = 32 - config_.hash_bits;
    std::uint32_t p = begin;
    while (p < end && std::size_t{p} + 8 <= input.size()) {
      std::uint64_t w;
      std::memcpy(&w, input.data() + p, 8);  // little-endian hosts
      const std::uint32_t lim = std::min<std::uint32_t>(end, p + 6);
      while (p < lim) {
        const std::uint32_t v = static_cast<std::uint32_t>(w) & 0xFFFFFFu;
        std::uint32_t& slot = head_[(v * 2654435761u) >> shift];
        prev_[p & mask] = slot;
        slot = base_ + p;
        w >>= 8;
        ++p;
      }
    }
    for (; p < end; ++p) insert(input, p);
  }

  const MatcherConfig& config() const { return config_; }

 private:
  MatcherConfig config_;
  std::uint32_t max_chain_depth_;
  std::vector<std::uint32_t> head_;  // hash -> generation-biased position
  std::vector<std::uint32_t> prev_;  // pos % window -> biased previous position
  std::uint32_t base_ = 1;           // current generation bias
  std::uint32_t block_span_ = 0;     // positions the current block may use
  static constexpr std::uint32_t kEmpty = kNoLimit;
};

}  // namespace gompresso::lz77
