#include "ingest/inflate.hpp"

#include <algorithm>
#include <array>

#include "core/decode_tables.hpp"
#include "huffman/decoder.hpp"
#include "ingest/gzip_format.hpp"
#include "lz77/deflate_tables.hpp"

namespace gompresso::ingest {
namespace {

// Packed fused-entry transforms (core/decode_tables.hpp layout). The
// RFC-impossible symbols — lit/len 286/287, distance 30/31, present in
// the fixed code's length list — map to 0, i.e. table holes, so using
// one surfaces as an invalid codeword instead of a bogus match.
std::uint32_t litlen_entry(std::uint16_t sym, unsigned len) {
  if (sym < 256) return core::pack_fused(core::kFusedLiteral, sym, 0, len);
  if (sym == 256) return core::pack_fused(core::kFusedEnd, 0, 0, len);
  if (sym >= 286) return 0;
  const std::uint32_t code = sym - 257u;
  return core::pack_fused(core::kFusedMatch, lz77::length_base(code),
                          lz77::length_extra_bits(code), len);
}

std::uint32_t dist_entry(std::uint16_t sym, unsigned len) {
  if (sym >= lz77::kNumDistanceCodes) return 0;
  return core::pack_fused(0, lz77::distance_base(sym),
                          lz77::distance_extra_bits(sym), len);
}

/// Converts literal entries whose peek window also fully determines a
/// following literal into double-literal entries (one load, two
/// bytes). Safe in place: only kFusedLiteral entries are read as
/// second halves, and a converted entry no longer matches that kind —
/// a missed pairing is merely conservative.
void upgrade_double_literals(std::vector<std::uint32_t>& table, unsigned table_bits) {
  for (std::size_t i = 0; i < table.size(); ++i) {
    const std::uint32_t e = table[i];
    if (e == 0 || core::fused_kind(e) != core::kFusedLiteral) continue;
    const unsigned l1 = core::fused_code_length(e);
    if (l1 >= table_bits) continue;
    const std::uint32_t e2 = table[i >> l1];
    if (e2 == 0 || core::fused_kind(e2) != core::kFusedLiteral) continue;
    const unsigned l2 = core::fused_code_length(e2);
    // The second code must lie entirely within the known peeked bits.
    if (l1 + l2 > table_bits) continue;
    table[i] = core::pack_fused(
        core::kFusedDoubleLiteral,
        core::fused_value(e) | (core::fused_value(e2) << 8), 0, l1 + l2);
  }
}

unsigned max_length(const std::vector<std::uint8_t>& lengths) {
  unsigned m = 0;
  for (const auto l : lengths) m = std::max<unsigned>(m, l);
  return m;
}

/// zlib-style Kraft audit: -1 over-subscribed, 0 exactly complete,
/// +1 incomplete (an all-zero length set reads as incomplete).
int code_status(const std::vector<std::uint8_t>& lengths) {
  std::int64_t counts[16] = {};
  for (const auto l : lengths) ++counts[l];
  std::int64_t left = 1;
  for (unsigned len = 1; len <= 15; ++len) {
    left <<= 1;
    left -= counts[len];
    if (left < 0) return -1;
  }
  return left > 0 ? 1 : 0;
}

bool all_zero(const std::vector<std::uint8_t>& lengths) {
  return std::all_of(lengths.begin(), lengths.end(),
                     [](std::uint8_t l) { return l == 0; });
}

/// Fused-table token loop shared by all sinks. One refill() per token:
/// lit/len code (<= 15) + length extra (<= 5) + distance code (<= 15)
/// + distance extra (<= 13) = 48 <= kGuaranteedBits.
template <typename Sink>
void decode_block(BitReader& br, const InflateTables& t, Sink& sink) {
  const std::uint32_t* lit = t.litlen.data();
  const std::uint32_t* dst = t.dist.data();
  const unsigned lbits = t.litlen_bits;
  const unsigned dbits = t.dist_bits;
  while (true) {
    br.refill();
    const std::uint32_t e = lit[br.peek_unchecked(lbits)];
    check_corrupt(e != 0, "gzip: invalid lit/len codeword");
    br.consume_unchecked(core::fused_code_length(e));
    const std::uint32_t kind = core::fused_kind(e);
    if (kind == core::kFusedLiteral) {
      sink.push(static_cast<std::uint8_t>(core::fused_value(e)));
      continue;
    }
    if (kind == core::kFusedDoubleLiteral) {
      const std::uint32_t v = core::fused_value(e);
      sink.push(static_cast<std::uint8_t>(v & 0xFF));
      sink.push(static_cast<std::uint8_t>(v >> 8));
      continue;
    }
    if (kind == core::kFusedEnd) return;
    const std::uint32_t length =
        core::fused_value(e) + br.read_unchecked(core::fused_extra_bits(e));
    const std::uint32_t de = dst[br.peek_unchecked(dbits)];
    check_corrupt(de != 0, "gzip: invalid distance codeword");
    br.consume_unchecked(core::fused_code_length(de));
    const std::uint32_t distance =
        core::fused_value(de) + br.read_unchecked(core::fused_extra_bits(de));
    sink.copy(length, distance);
  }
}

void align_to_byte(BitReader& br) {
  const unsigned pad = static_cast<unsigned>(br.bit_pos() & 7);
  if (pad != 0) br.consume(8 - pad);
}

}  // namespace

const InflateTables& InflateScratch::fixed() {
  if (!fixed_built_) {
    // RFC 1951 §3.2.6. Both codes are complete by construction, so the
    // builds below cannot throw.
    std::vector<std::uint8_t> ll(288);
    for (unsigned s = 0; s < 144; ++s) ll[s] = 8;
    for (unsigned s = 144; s < 256; ++s) ll[s] = 9;
    for (unsigned s = 256; s < 280; ++s) ll[s] = 7;
    for (unsigned s = 280; s < 288; ++s) ll[s] = 8;
    huffman::build_packed_table(ll, 9, fixed_.litlen, litlen_entry);
    upgrade_double_literals(fixed_.litlen, 9);
    fixed_.litlen_bits = 9;
    std::vector<std::uint8_t> dl(32, 5);
    huffman::build_packed_table(dl, 5, fixed_.dist, dist_entry);
    fixed_.dist_bits = 5;
    fixed_built_ = true;
  }
  return fixed_;
}

bool parse_dynamic_header(BitReader& br, InflateScratch& s, bool require_complete) {
  const unsigned hlit = br.read(5) + 257;
  const unsigned hdist = br.read(5) + 1;
  const unsigned hclen = br.read(4) + 4;
  if (hlit > 286 || hdist > 30) return false;

  static constexpr std::uint8_t kPrecodeOrder[19] = {
      16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15};
  s.precode_lengths.assign(19, 0);
  for (unsigned i = 0; i < hclen; ++i) {
    s.precode_lengths[kPrecodeOrder[i]] = static_cast<std::uint8_t>(br.read(3));
  }
  // The precode must be exactly complete (zlib rejects anything else,
  // so no valid stream has an incomplete one) — which also means the
  // table built from it has no holes.
  if (code_status(s.precode_lengths) != 0) return false;
  const unsigned pre_bits = max_length(s.precode_lengths);
  huffman::build_packed_table(
      s.precode_lengths, pre_bits, s.precode_table,
      [](std::uint16_t sym, unsigned len) {
        return core::pack_fused(0, sym, 0, len);
      });

  s.litlen_lengths.assign(hlit, 0);
  s.dist_lengths.assign(hdist, 0);
  const unsigned total = hlit + hdist;
  const auto set_len = [&](unsigned i, std::uint8_t v) {
    if (i < hlit) {
      s.litlen_lengths[i] = v;
    } else {
      s.dist_lengths[i - hlit] = v;
    }
  };
  unsigned i = 0;
  while (i < total) {
    br.refill();  // code (<= 7) + repeat extra (<= 7) per iteration
    const std::uint32_t e = s.precode_table[br.peek_unchecked(pre_bits)];
    if (e == 0) return false;
    br.consume_unchecked(core::fused_code_length(e));
    const std::uint32_t sym = core::fused_value(e);
    if (sym < 16) {
      set_len(i++, static_cast<std::uint8_t>(sym));
      continue;
    }
    unsigned repeat;
    std::uint8_t value = 0;
    if (sym == 16) {
      if (i == 0) return false;  // nothing to repeat
      value = i - 1 < hlit ? s.litlen_lengths[i - 1] : s.dist_lengths[i - 1 - hlit];
      repeat = 3 + br.read_unchecked(2);
    } else if (sym == 17) {
      repeat = 3 + br.read_unchecked(3);
    } else {
      repeat = 11 + br.read_unchecked(7);
    }
    if (i + repeat > total) return false;
    for (unsigned k = 0; k < repeat; ++k) set_len(i++, value);
  }

  // An over-subscribed code is invalid in any mode; holes from an
  // incomplete code are tolerated in decode mode (they error on use).
  const int lit_status = code_status(s.litlen_lengths);
  const int dist_status = code_status(s.dist_lengths);
  if (lit_status < 0 || dist_status < 0) return false;
  if (require_complete) {
    // Real encoders emit an exactly complete lit/len code containing
    // end-of-block, and a complete (or entirely absent) distance code.
    // Demanding that here is what makes random bit offsets fail the
    // filter almost surely.
    if (lit_status != 0 || s.litlen_lengths[256] == 0) return false;
    if (dist_status != 0 && !all_zero(s.dist_lengths)) return false;
  }
  return true;
}

void build_dynamic_tables(InflateScratch& s) {
  try {
    const unsigned lbits = max_length(s.litlen_lengths);
    check_corrupt(lbits != 0, "gzip: dynamic block has an empty lit/len code");
    huffman::build_packed_table(s.litlen_lengths, lbits, s.tables.litlen,
                                litlen_entry);
    upgrade_double_literals(s.tables.litlen, lbits);
    s.tables.litlen_bits = lbits;
    const unsigned dbits = std::max(1u, max_length(s.dist_lengths));
    huffman::build_packed_table(s.dist_lengths, dbits, s.tables.dist, dist_entry);
    s.tables.dist_bits = dbits;
  } catch (const CorruptionError&) {
    throw;
  } catch (const Error&) {
    // build_packed_table reports via plain Error (kConfig); for a
    // decode of untrusted input that is data damage, not API misuse.
    throw CorruptionError("gzip: invalid dynamic huffman code");
  }
}

std::uint64_t find_block_boundary(ByteSpan data, std::uint64_t begin_bit,
                                  std::uint64_t end_bit, InflateScratch& s,
                                  BoundaryScanStats* stats) {
  end_bit = std::min<std::uint64_t>(end_bit, 8 * data.size());
  for (std::uint64_t bit = begin_bit; bit < end_bit; ++bit) {
    if (stats != nullptr) ++stats->bits_scanned;
    BitReader br(data, bit);
    br.read(1);  // BFINAL: either value is plausible
    const std::uint32_t btype = br.read(2);
    if (btype == 0) {
      // Weak filter: byte-aligned LEN/~NLEN must match, and an empty
      // stored block is too unusual to anchor on.
      align_to_byte(br);
      const std::uint32_t len = br.read(16);
      const std::uint32_t nlen = br.read(16);
      if ((len ^ nlen) != 0xFFFF || len == 0 || br.overflowed()) continue;
      if ((br.bit_pos() >> 3) + len > data.size()) continue;
    } else if (btype == 2) {
      if (!parse_dynamic_header(br, s, /*require_complete=*/true)) continue;
      if (br.overflowed()) continue;
    } else {
      // BTYPE 1 (fixed) has no header to validate — any 3 bits match,
      // so it carries no evidence; BTYPE 3 is reserved.
      continue;
    }
    if (stats != nullptr) ++stats->candidates;
    return bit;
  }
  return kNoBoundary;
}

// ---------------------------------------------------------------- sinks

namespace {

/// Grows capacity geometrically before an in-vector overlap copy. A
/// bare reserve(size + length) would request a capacity just past the
/// current one on every call, so a match-dominated run (notably the
/// zero padding past a short slice, which can decode as an endless
/// match chain) would reallocate the whole buffer per match —
/// quadratic time against the expansion bound instead of linear.
template <typename Vec>
void reserve_for(Vec& v, std::size_t length) {
  const std::size_t need = v.size() + length;
  if (need > v.capacity()) {
    v.reserve(std::max(need, v.capacity() + v.capacity() / 2));
  }
}

}  // namespace

void ByteSink::copy(std::uint32_t length, std::uint32_t distance) {
  check_corrupt(length <= cap_ - pos_, "gzip: block decodes past its indexed size");
  std::uint64_t rel = pos_ - member_base_;
  if (distance > rel) {
    const std::uint64_t from_window = distance - rel;
    check_corrupt(from_window <= window_.size(),
                  "gzip: back-reference beyond window");
    const std::uint8_t* wsrc = window_.data() + (window_.size() - from_window);
    const std::uint32_t n =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(length, from_window));
    for (std::uint32_t k = 0; k < n; ++k) out_[pos_++] = wsrc[k];
    length -= n;
    if (length == 0) return;
    // The window part is exhausted, so the source continues at the
    // member's first output byte: distance <= pos_ - member_base_ now.
  }
  const std::uint8_t* src = out_ + (pos_ - distance);
  for (std::uint32_t k = 0; k < length; ++k) out_[pos_++] = *src++;
}

void GrowingByteSink::copy(std::uint32_t length, std::uint32_t distance) {
  guard_growth(length);
  reserve_for(buf_, length);  // keep self-referencing pushes cheap
  const std::uint64_t rel = buf_.size() - member_base_;
  std::uint32_t remaining = length;
  if (distance > rel) {
    const std::uint64_t from_window = distance - rel;
    check_corrupt(from_window <= window_.size(),
                  "gzip: back-reference beyond window");
    const std::uint8_t* wsrc = window_.data() + (window_.size() - from_window);
    const std::uint32_t n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(remaining, from_window));
    buf_.insert(buf_.end(), wsrc, wsrc + n);
    remaining -= n;
  }
  // In-buffer overlap copy: the window part is exhausted, so the source
  // lies inside the member's output.
  for (std::uint32_t k = 0; k < remaining; ++k) {
    buf_.push_back(buf_[buf_.size() - distance]);
  }
}

void MarkerSink::copy(std::uint32_t length, std::uint32_t distance) {
  guard_growth(length);
  reserve_for(out_, length);
  std::uint32_t remaining = length;
  if (distance > out_.size() - member_base_) {
    check_corrupt(allow_window_, "gzip: back-reference beyond window");
    check_corrupt(distance - (out_.size() - member_base_) <= kWindowSize,
                  "gzip: back-reference beyond window");
    // Positions the reference reaches before the chunk become markers
    // naming absolute start-window bytes: at relative position p the
    // source byte is window[kWindowSize - (distance - p)].
    while (remaining > 0) {
      const std::size_t rel = out_.size() - member_base_;
      if (distance <= rel) break;
      const std::size_t w = kWindowSize - (distance - rel);
      out_.push_back(static_cast<std::uint16_t>(kMarkerBase + w));
      --remaining;
    }
  }
  // Token copy: a marker names an absolute window byte, so replicating
  // it forward preserves meaning.
  for (; remaining > 0; --remaining) {
    out_.push_back(out_[out_.size() - distance]);
  }
}

void patch_markers(std::span<const std::uint16_t> tokens, ByteSpan window,
                   MutableByteSpan out) {
  check(window.size() == kWindowSize, "gzip: patch window must be 32 KiB");
  check(out.size() == tokens.size(), "gzip: marker patch size mismatch");
  // Copies replicate markers, so they stay dense far into a chunk and a
  // literal-or-marker branch mispredicts constantly. One table indexed
  // by the token — literals map to themselves, markers to their window
  // byte — patches without branching.
  std::array<std::uint8_t, kMarkerBase + kWindowSize> lut;
  for (std::size_t b = 0; b < kMarkerBase; ++b) lut[b] = static_cast<std::uint8_t>(b);
  std::copy(window.begin(), window.end(), lut.begin() + kMarkerBase);
  for (std::size_t i = 0; i < tokens.size(); ++i) out[i] = lut[tokens[i]];
}

// --------------------------------------------------------- chunk driver

namespace {

template <typename Sink>
ChunkStatus run_chunk(ByteSpan data, std::uint64_t start_bit,
                      std::uint64_t stop_bit, std::uint64_t stream_end_byte,
                      Sink& sink, InflateScratch& s, ChunkResult& result,
                      std::uint64_t stop_output) {
  result.members.clear();
  result.end_bit = 0;
  // A partial slice turns "ran past the data" into grow-and-retry; a
  // full slice makes the same condition real corruption.
  const bool partial = data.size() < stream_end_byte;
  BitReader br(data, start_bit);
  const auto bail = [&](const char* msg) -> ChunkStatus {
    if (partial) return ChunkStatus::kNeedMoreData;
    throw CorruptionError(msg);
  };
  try {
    while (true) {
      if (br.bit_pos() >= stop_bit || sink.produced() >= stop_output) {
        result.end_bit = br.bit_pos();
        return ChunkStatus::kStopped;
      }
      const std::uint32_t bfinal = br.read(1);
      const std::uint32_t btype = br.read(2);
      if (btype == 0) {
        align_to_byte(br);
        const std::uint32_t len = br.read(16);
        const std::uint32_t nlen = br.read(16);
        check_corrupt((len ^ nlen) == 0xFFFF,
                      "gzip: stored block LEN/NLEN mismatch");
        const std::uint64_t byte_off = br.bit_pos() >> 3;
        if (byte_off + len > data.size()) {
          return bail("gzip: stored block truncated");
        }
        for (std::uint32_t k = 0; k < len; ++k) {
          sink.push(data[static_cast<std::size_t>(byte_off) + k]);
        }
        br = BitReader(data, (byte_off + len) * 8);
      } else if (btype == 1) {
        decode_block(br, s.fixed(), sink);
      } else if (btype == 2) {
        check_corrupt(parse_dynamic_header(br, s, /*require_complete=*/false),
                      "gzip: invalid dynamic block header");
        build_dynamic_tables(s);
        decode_block(br, s.tables, sink);
      } else {
        throw CorruptionError("gzip: reserved block type");
      }
      if (br.overflowed()) return bail("gzip: compressed stream truncated");
      if (bfinal != 0) {
        align_to_byte(br);
        MemberEvent ev;
        ev.crc32 = br.read(32);
        ev.isize = br.read(32);
        if (br.overflowed()) return bail("gzip: member trailer truncated");
        ev.out_offset = sink.produced();
        result.members.push_back(ev);
        const std::uint64_t trailer_end_byte = br.bit_pos() >> 3;
        if (trailer_end_byte == stream_end_byte) {
          result.end_bit = br.bit_pos();
          return ChunkStatus::kEndOfStream;
        }
        check_corrupt(trailer_end_byte < stream_end_byte,
                      "gzip: member trailer past the end of the stream");
        skip_member_header(br);
        if (br.overflowed()) return bail("gzip: member header truncated");
        sink.reset_window();
      }
    }
  } catch (const CorruptionError&) {
    // Zero padding past a short slice decodes as garbage; that is a
    // grow-and-retry, not damage. Anything thrown before the reader
    // ran off the end is genuine.
    if (partial && br.overflowed()) return ChunkStatus::kNeedMoreData;
    throw;
  }
}

}  // namespace

ChunkStatus inflate_chunk(ByteSpan data, std::uint64_t start_bit,
                          std::uint64_t stop_bit, std::uint64_t stream_end_byte,
                          ByteSink& sink, InflateScratch& s, ChunkResult& result) {
  return run_chunk(data, start_bit, stop_bit, stream_end_byte, sink, s, result,
                   kNoOutputStop);
}

ChunkStatus inflate_chunk(ByteSpan data, std::uint64_t start_bit,
                          std::uint64_t stop_bit, std::uint64_t stream_end_byte,
                          GrowingByteSink& sink, InflateScratch& s,
                          ChunkResult& result, std::uint64_t stop_output) {
  return run_chunk(data, start_bit, stop_bit, stream_end_byte, sink, s, result,
                   stop_output);
}

ChunkStatus inflate_chunk(ByteSpan data, std::uint64_t start_bit,
                          std::uint64_t stop_bit, std::uint64_t stream_end_byte,
                          MarkerSink& sink, InflateScratch& s,
                          ChunkResult& result, std::uint64_t stop_output) {
  return run_chunk(data, start_bit, stop_bit, stream_end_byte, sink, s, result,
                   stop_output);
}

}  // namespace gompresso::ingest
