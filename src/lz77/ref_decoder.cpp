#include "lz77/ref_decoder.hpp"

#include <cstring>

#include "core/resolve_common.hpp"

namespace gompresso::lz77 {

namespace {

/// Chunk width of the wild copies below, which may write up to
/// kWildCopySlack - 1 bytes past the run they copy (and read as far past
/// its source). resolve_span gates them with a room check per sequence
/// and copies exactly otherwise, so no buffer needs tail slack; its next
/// sequences overwrite the bytes past a run before anything reads them.
constexpr std::uint64_t kWildCopySlack = 16;

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
    core::copy_backref(data, out, out - dist, static_cast<std::uint32_t>(len));
  }
}

}  // namespace

std::uint64_t resolve_span(std::span<const Sequence> sequences,
                           const std::uint8_t* literals, std::size_t literal_count,
                           MutableByteSpan window, std::uint64_t base) {
  check(base <= window.size(), "lz77: span base past end of window");
  std::uint8_t* const data = window.data();
  const std::uint64_t size = window.size();
  std::uint64_t out = base;
  std::uint64_t lit_cursor = 0;
  for (const Sequence& seq : sequences) {
    const std::uint64_t lit = seq.literal_len;
    const std::uint64_t len = seq.match_len;
    const std::uint64_t end = out + lit + len;
    if (end + kWildCopySlack <= size) [[likely]] {
      // Fast path: the whole sequence plus one chunk of slack fits in
      // the window. The literal run also copies wild unless it ends
      // within a chunk of the literal buffer's end.
      if (lit_cursor + lit + kWildCopySlack <= literal_count) [[likely]] {
        wild_copy(data + out, literals + lit_cursor, lit);
      } else {
        check(lit_cursor + lit <= literal_count, "lz77: literal buffer overrun");
        if (lit != 0) std::memcpy(data + out, literals + lit_cursor, lit);
      }
      lit_cursor += lit;
      out += lit;
      if (len == 0) continue;
      // dist - 1 wraps for dist == 0, so one compare covers both bounds.
      check(std::uint64_t{seq.match_dist} - 1 < out,
            "lz77: back-reference past start of block");
      wild_copy_match(data, out, seq.match_dist, len);
      out = end;
      continue;
    }
    // Exact path: sequences within a chunk of the window end.
    check(lit_cursor + lit <= literal_count, "lz77: literal buffer overrun");
    check(end <= size, "lz77: output overrun");
    if (lit != 0) {
      std::memcpy(data + out, literals + lit_cursor, lit);
      lit_cursor += lit;
      out += lit;
    }
    if (len == 0) continue;
    check(seq.match_dist >= 1 && seq.match_dist <= out,
          "lz77: back-reference past start of block");
    core::copy_backref(data, out, out - seq.match_dist, seq.match_len);
    out = end;
  }
  check(lit_cursor == literal_count, "lz77: literal count mismatch");
  return out - base;
}

Bytes decode_reference(const TokenBlock& block) {
  validate(block);
  Bytes out(block.uncompressed_size);
  const std::uint64_t written =
      resolve_span(block.sequences, block.literals.data(), block.literals.size(),
                   out, /*base=*/0);
  check(written == block.uncompressed_size, "lz77: size mismatch after decode");
  return out;
}

void validate(const TokenBlock& block) {
  std::uint64_t literal_bytes = 0;
  std::uint64_t out_bytes = 0;
  for (std::size_t i = 0; i < block.sequences.size(); ++i) {
    const Sequence& seq = block.sequences[i];
    literal_bytes += seq.literal_len;
    out_bytes += seq.literal_len;
    if (seq.match_len == 0) {
      // Zero-match sequences occur as the block terminator and as
      // literal-run splits (ParserOptions::max_literal_run).
      check(seq.match_dist == 0, "lz77: zero-length match with distance");
      continue;
    }
    check(seq.match_dist >= 1, "lz77: zero distance");
    check(seq.match_dist <= out_bytes, "lz77: distance exceeds produced output");
    out_bytes += seq.match_len;
  }
  check(literal_bytes == block.literals.size(), "lz77: literal byte count mismatch");
  check(out_bytes == block.uncompressed_size, "lz77: uncompressed size mismatch");
  check(!block.sequences.empty(), "lz77: no sequences");
  check(block.sequences.back().match_len == 0, "lz77: missing terminator sequence");
}

}  // namespace gompresso::lz77
