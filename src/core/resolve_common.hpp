// Shared phase-2 resolution primitives.
//
// Every LZ77 resolver copies back-references into a block's output
// window: the production kernel (lz77::resolve_span) and the paper's
// warp simulator (sim/). They share the overlap-safe copy kernel and the
// deferred-reference record; this header is that common ground so they
// stay bit-for-bit agreeing on the tricky cases (RLE runs,
// self-overlapping forward copies).
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

}  // namespace gompresso::core
