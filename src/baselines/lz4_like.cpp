#include "baselines/lz4_like.hpp"

#include <cstring>

#include "core/resolve_common.hpp"
#include "lz77/matcher.hpp"
#include "util/varint.hpp"

namespace gompresso::baselines {
namespace {

constexpr std::uint32_t kMinMatch = 4;

void put_length(Bytes& out, std::uint32_t len) {
  // 255-chained extension bytes (LZ4 convention).
  while (len >= 255) {
    out.push_back(255);
    len -= 255;
  }
  out.push_back(static_cast<std::uint8_t>(len));
}

std::uint32_t get_length(ByteSpan in, std::size_t& pos) {
  std::uint32_t len = 0;
  while (true) {
    check(pos < in.size(), "lz4-like: truncated length");
    const std::uint8_t b = in[pos++];
    len += b;
    if (b != 255) return len;
  }
}

}  // namespace

Bytes Lz4Like::compress_block(ByteSpan input) const {
  Bytes out;
  put_varint(out, input.size());
  if (input.empty()) return out;

  lz77::MatcherConfig cfg;
  cfg.window_size = 32 * 1024;
  cfg.min_match = kMinMatch;
  cfg.max_match = 258;
  cfg.staleness = 0;  // stock LZ4: always keep the most recent position
  lz77::HashMatcher matcher(cfg);

  check(input.size() < lz77::kNoLimit / 2, "lz4-like: block too large");
  const std::uint32_t size = static_cast<std::uint32_t>(input.size());
  std::uint32_t pos = 0;
  std::uint32_t literal_start = 0;
  while (pos < size) {
    const lz77::Match m = matcher.find(input, pos, pos);
    if (m.found()) {
      const std::uint32_t lit_len = pos - literal_start;
      const std::uint32_t ml = m.len - kMinMatch;
      const std::uint8_t token =
          static_cast<std::uint8_t>((std::min<std::uint32_t>(lit_len, 15) << 4) |
                                    std::min<std::uint32_t>(ml, 15));
      out.push_back(token);
      if (lit_len >= 15) put_length(out, lit_len - 15);
      out.insert(out.end(), input.begin() + literal_start, input.begin() + pos);
      const std::uint32_t offset = pos - m.pos;
      out.push_back(static_cast<std::uint8_t>(offset));
      out.push_back(static_cast<std::uint8_t>(offset >> 8));
      if (ml >= 15) put_length(out, ml - 15);
      for (std::uint32_t p = pos; p < pos + m.len; ++p) matcher.insert(input, p);
      pos += m.len;
      literal_start = pos;
    } else {
      matcher.insert(input, pos);
      ++pos;
    }
  }
  // Final literals-only sequence (token with zero match nibble, no offset).
  const std::uint32_t lit_len = pos - literal_start;
  out.push_back(static_cast<std::uint8_t>(std::min<std::uint32_t>(lit_len, 15) << 4));
  if (lit_len >= 15) put_length(out, lit_len - 15);
  out.insert(out.end(), input.begin() + literal_start, input.begin() + pos);
  return out;
}

void Lz4Like::decompress_block(ByteSpan payload, MutableByteSpan out) const {
  std::size_t pos = 0;
  check(get_varint(payload, pos) == out.size(), "lz4-like: size mismatch");
  std::size_t o = 0;
  while (o < out.size()) {
    check(pos < payload.size(), "lz4-like: truncated token");
    const std::uint8_t token = payload[pos++];
    std::uint32_t lit_len = token >> 4;
    if (lit_len == 15) lit_len += get_length(payload, pos);
    check(pos + lit_len <= payload.size(), "lz4-like: truncated literals");
    check(lit_len <= out.size() - o, "lz4-like: literals past end of block");
    std::memcpy(out.data() + o, payload.data() + pos, lit_len);
    pos += lit_len;
    o += lit_len;
    if (o == out.size()) break;  // final literals-only sequence
    check(pos + 2 <= payload.size(), "lz4-like: truncated offset");
    const std::uint32_t offset = static_cast<std::uint32_t>(payload[pos]) |
                                 (static_cast<std::uint32_t>(payload[pos + 1]) << 8);
    pos += 2;
    std::uint32_t match_len = token & 0xF;
    if (match_len == 15) match_len += get_length(payload, pos);
    match_len += kMinMatch;
    core::copy_match(out, o, offset, match_len);
    o += match_len;
  }
}

}  // namespace gompresso::baselines

namespace gompresso::baselines {
std::unique_ptr<Codec> make_lz4_like() { return std::make_unique<Lz4Like>(); }
}  // namespace gompresso::baselines
