#include "baselines/snappy_like.hpp"

#include <algorithm>
#include <cstring>

#include "core/resolve_common.hpp"
#include "lz77/matcher.hpp"
#include "util/varint.hpp"

namespace gompresso::baselines {
namespace {

// Tag low bits (Snappy conventions).
constexpr std::uint8_t kTagLiteral = 0;
constexpr std::uint8_t kTagCopy1 = 1;  // len 4..11, offset < 2^11
constexpr std::uint8_t kTagCopy2 = 2;  // len 1..64, offset < 2^16

void emit_literal(Bytes& out, ByteSpan input, std::size_t start, std::size_t len) {
  while (len > 0) {
    const std::size_t chunk = std::min<std::size_t>(len, 16384);
    if (chunk <= 60) {
      out.push_back(static_cast<std::uint8_t>(((chunk - 1) << 2) | kTagLiteral));
    } else if (chunk <= 256) {
      out.push_back(static_cast<std::uint8_t>((60 << 2) | kTagLiteral));
      out.push_back(static_cast<std::uint8_t>(chunk - 1));
    } else {
      out.push_back(static_cast<std::uint8_t>((61 << 2) | kTagLiteral));
      out.push_back(static_cast<std::uint8_t>((chunk - 1) & 0xFF));
      out.push_back(static_cast<std::uint8_t>((chunk - 1) >> 8));
    }
    out.insert(out.end(), input.begin() + static_cast<std::ptrdiff_t>(start),
               input.begin() + static_cast<std::ptrdiff_t>(start + chunk));
    start += chunk;
    len -= chunk;
  }
}

void emit_copy(Bytes& out, std::uint32_t offset, std::uint32_t len) {
  // Prefer the compact copy1 form when it fits; split long matches.
  while (len > 0) {
    if (len >= 4 && len <= 11 && offset < 2048) {
      out.push_back(static_cast<std::uint8_t>(((offset >> 8) << 5) |
                                              ((len - 4) << 2) | kTagCopy1));
      out.push_back(static_cast<std::uint8_t>(offset & 0xFF));
      return;
    }
    const std::uint32_t chunk = std::min<std::uint32_t>(len, 64);
    if (len - chunk > 0 && len - chunk < 4) {
      // Avoid leaving an un-emittable 1..3 byte tail.
      const std::uint32_t adjusted = chunk - (4 - (len - chunk));
      out.push_back(static_cast<std::uint8_t>(((adjusted - 1) << 2) | kTagCopy2));
      out.push_back(static_cast<std::uint8_t>(offset & 0xFF));
      out.push_back(static_cast<std::uint8_t>(offset >> 8));
      len -= adjusted;
      continue;
    }
    out.push_back(static_cast<std::uint8_t>(((chunk - 1) << 2) | kTagCopy2));
    out.push_back(static_cast<std::uint8_t>(offset & 0xFF));
    out.push_back(static_cast<std::uint8_t>(offset >> 8));
    len -= chunk;
  }
}

}  // namespace

Bytes SnappyLike::compress_block(ByteSpan input) const {
  Bytes out;
  put_varint(out, input.size());
  if (input.empty()) return out;

  lz77::MatcherConfig cfg;
  cfg.window_size = 32 * 1024;
  cfg.min_match = 4;
  cfg.max_match = 64;  // Snappy's native copy limit
  cfg.staleness = 0;
  lz77::HashMatcher matcher(cfg);

  check(input.size() < lz77::kNoLimit / 2, "snappy-like: block too large");
  const std::uint32_t size = static_cast<std::uint32_t>(input.size());
  std::uint32_t pos = 0;
  std::uint32_t literal_start = 0;
  while (pos < size) {
    const lz77::Match m = matcher.find(input, pos, pos);
    if (m.found()) {
      emit_literal(out, input, literal_start, pos - literal_start);
      emit_copy(out, pos - m.pos, m.len);
      for (std::uint32_t p = pos; p < pos + m.len; ++p) matcher.insert(input, p);
      pos += m.len;
      literal_start = pos;
    } else {
      matcher.insert(input, pos);
      ++pos;
    }
  }
  emit_literal(out, input, literal_start, pos - literal_start);
  return out;
}

void SnappyLike::decompress_block(ByteSpan payload, MutableByteSpan out) const {
  std::size_t pos = 0;
  check(get_varint(payload, pos) == out.size(), "snappy-like: size mismatch");
  std::size_t o = 0;
  while (o < out.size()) {
    check(pos < payload.size(), "snappy-like: truncated tag");
    const std::uint8_t tag = payload[pos++];
    const std::uint8_t kind = tag & 3;
    if (kind == kTagLiteral) {
      std::uint32_t len = (tag >> 2) + 1;
      if (len == 61) {
        check(pos < payload.size(), "snappy-like: truncated literal length");
        len = payload[pos++] + 1;
      } else if (len == 62) {
        check(pos + 2 <= payload.size(), "snappy-like: truncated literal length");
        len = (static_cast<std::uint32_t>(payload[pos]) |
               (static_cast<std::uint32_t>(payload[pos + 1]) << 8)) +
              1;
        pos += 2;
      } else {
        check(len <= 60, "snappy-like: bad literal tag");
      }
      check(pos + len <= payload.size(), "snappy-like: truncated literals");
      check(len <= out.size() - o, "snappy-like: literals past end of block");
      std::memcpy(out.data() + o, payload.data() + pos, len);
      pos += len;
      o += len;
      continue;
    }
    std::uint32_t len = 0;
    std::uint32_t offset = 0;
    if (kind == kTagCopy1) {
      check(pos < payload.size(), "snappy-like: truncated copy1");
      len = ((tag >> 2) & 7) + 4;
      offset = (static_cast<std::uint32_t>(tag >> 5) << 8) | payload[pos++];
    } else if (kind == kTagCopy2) {
      check(pos + 2 <= payload.size(), "snappy-like: truncated copy2");
      len = (tag >> 2) + 1;
      offset = static_cast<std::uint32_t>(payload[pos]) |
               (static_cast<std::uint32_t>(payload[pos + 1]) << 8);
      pos += 2;
    } else {
      // Data-level failure in an untrusted payload: corruption, not
      // config — callers classify by type (util/common.hpp).
      throw CorruptionError("snappy-like: unsupported tag kind");
    }
    core::copy_match(out, o, offset, len);
    o += len;
  }
}

}  // namespace gompresso::baselines

namespace gompresso::baselines {
std::unique_ptr<Codec> make_snappy_like() { return std::make_unique<SnappyLike>(); }
}  // namespace gompresso::baselines
