// Shared phase-2 resolution primitives.
//
// Every LZ77 decoder copies back-references into its output: the
// production kernel (lz77::resolve_span), the CPU baselines
// (src/baselines/), the gzip byte sinks (ingest/inflate.cpp) and the
// paper's warp simulator (sim/). They share the overlap-safe copy
// kernel, its 16-byte wild-copy fast path and the deferred-reference
// record; this header is that common ground so they stay bit-for-bit
// agreeing on the tricky cases (RLE runs, self-overlapping forward
// copies).
#pragma once

#include <algorithm>
#include <cstring>

#include "util/common.hpp"

namespace gompresso::core {

/// One unresolved (deferred/spilled) back-reference. 16 bytes — for the
/// simulator's multi-pass variant this is also the unit of its extra
/// memory traffic.
struct PendingRef {
  std::uint64_t write_pos = 0;  // where the copy lands
  std::uint32_t dist = 0;
  std::uint32_t len = 0;
};

/// Copies `len` bytes within `out` from `src` to `dst` (dst > src).
/// Overlapping regions (dst - src < len) replicate the dist-byte pattern
/// forward — the LZ77 run semantics — via pattern doubling: once the
/// first `dist` bytes are placed, the written prefix itself is a valid
/// (non-overlapping) source for ever larger memcpys.
inline void copy_backref(std::uint8_t* out, std::uint64_t dst, std::uint64_t src,
                         std::uint32_t len) {
  const std::uint64_t dist = dst - src;
  if (dist >= len) {
    std::memcpy(out + dst, out + src, len);
  } else if (dist == 1) {
    std::memset(out + dst, out[src], len);
  } else {
    std::memcpy(out + dst, out + src, dist);
    std::uint32_t copied = static_cast<std::uint32_t>(dist);
    while (copied < len) {
      const std::uint32_t chunk = std::min(copied, len - copied);
      std::memcpy(out + dst + copied, out + dst, chunk);
      copied += chunk;
    }
  }
}

/// Chunk width of the wild copies below, which may write up to
/// kWildCopySlack - 1 bytes past the run they copy (and read as far past
/// its source). Callers gate them with a room check and copy exactly
/// otherwise, so no buffer needs tail slack; the bytes past a run are
/// overwritten by later output before anything reads them.
inline constexpr std::uint64_t kWildCopySlack = 16;

/// Copies the `len` bytes at `src` to `dst` in 16-byte chunks, at least
/// one even when len == 0.
inline void wild_copy(std::uint8_t* dst, const std::uint8_t* src, std::uint64_t len) {
  std::uint8_t* const end = dst + len;
  do {
    std::memcpy(dst, src, kWildCopySlack);
    dst += kWildCopySlack;
    src += kWildCopySlack;
  } while (dst < end);
}

/// Resolves a back-reference of `len` >= 1 bytes at distance `dist`
/// (1 <= dist <= out) into data[out, ...). Distances of 16 or more copy
/// wild chunks — each chunk's source lies wholly below its destination,
/// so self-overlapping matches still replicate the run; distance 1 is a
/// memset and distances 2-15 use copy_backref, both exact.
inline void wild_copy_match(std::uint8_t* data, std::uint64_t out, std::uint64_t dist,
                            std::uint64_t len) {
  if (dist >= kWildCopySlack) {
    wild_copy(data + out, data + out - dist, len);
  } else if (dist == 1) {
    std::memset(data + out, data[out - 1], len);
  } else {
    copy_backref(data, out, out - dist, static_cast<std::uint32_t>(len));
  }
}

/// Checked back-reference of `len` bytes at distance `dist` into
/// out[pos, ...). Throws CorruptionError when dist is 0 or reaches
/// before out[0], or when the match runs past out.size(). Copies wild
/// only with a chunk of room left, so it never writes at or past
/// out.size(): parallel decodes into adjacent slices stay in their own.
inline void copy_match(MutableByteSpan out, std::uint64_t pos, std::uint32_t dist,
                       std::uint32_t len) {
  // dist - 1 wraps for dist == 0, so one compare covers both bounds.
  check_corrupt(std::uint64_t{dist} - 1 < pos, "lz77: back-reference past start of output");
  check_corrupt(pos <= out.size() && len <= out.size() - pos,
                "lz77: match runs past end of output");
  if (pos + len + kWildCopySlack <= out.size()) [[likely]] {
    wild_copy_match(out.data(), pos, dist, len);
  } else {
    copy_backref(out.data(), pos, pos - dist, len);
  }
}

}  // namespace gompresso::core
