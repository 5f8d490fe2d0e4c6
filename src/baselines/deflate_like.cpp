#include "baselines/deflate_like.hpp"

#include "bitstream/bit_reader.hpp"
#include "bitstream/bit_writer.hpp"
#include "core/resolve_common.hpp"
#include "huffman/code_builder.hpp"
#include "huffman/decoder.hpp"
#include "huffman/encoder.hpp"
#include "huffman/histogram.hpp"
#include "huffman/serial.hpp"
#include "lz77/deflate_tables.hpp"
#include "lz77/parser.hpp"
#include "util/varint.hpp"

namespace gompresso::baselines {
namespace {

constexpr std::size_t kLitLenAlphabet = 286;
constexpr std::uint16_t kEndSymbol = 256;
constexpr std::uint16_t kFirstLengthSymbol = 257;
constexpr unsigned kMaxCodeLen = 15;  // RFC 1951 limit (no CWL restriction)

}  // namespace

Bytes DeflateLike::compress_block(ByteSpan input) const {
  Bytes out;
  put_varint(out, input.size());
  if (input.empty()) return out;

  lz77::ParserOptions popt;
  popt.matcher.window_size = 32 * 1024;
  popt.matcher.min_match = 3;
  popt.matcher.max_match = 258;
  popt.matcher.staleness = 0;
  const lz77::TokenBlock tokens = lz77::parse_chained(input, popt, chain_depth_);

  huffman::Histogram litlen_hist(kLitLenAlphabet);
  huffman::Histogram dist_hist(lz77::kNumDistanceCodes);
  for (const auto b : tokens.literals) litlen_hist.add(b);
  for (const auto& s : tokens.sequences) {
    if (s.match_len == 0) {
      litlen_hist.add(kEndSymbol);
    } else {
      litlen_hist.add(kFirstLengthSymbol + lz77::encode_length(s.match_len).code);
      dist_hist.add(lz77::encode_distance(s.match_dist).code);
    }
  }
  const auto litlen_lengths =
      huffman::build_code_lengths(litlen_hist.counts(), kMaxCodeLen);
  const auto dist_lengths = huffman::build_code_lengths(dist_hist.counts(), kMaxCodeLen);
  const huffman::Encoder litlen_enc(huffman::assign_canonical_codes(litlen_lengths));
  const huffman::Encoder dist_enc(huffman::assign_canonical_codes(dist_lengths));

  BitWriter bits;
  huffman::write_code_lengths(litlen_lengths, bits);
  huffman::write_code_lengths(dist_lengths, bits);
  const std::uint8_t* lit = tokens.literals.data();
  for (const auto& s : tokens.sequences) {
    for (std::uint32_t i = 0; i < s.literal_len; ++i) litlen_enc.encode(lit[i], bits);
    lit += s.literal_len;
    if (s.match_len == 0) {
      litlen_enc.encode(kEndSymbol, bits);
    } else {
      const auto lc = lz77::encode_length(s.match_len);
      litlen_enc.encode(kFirstLengthSymbol + lc.code, bits);
      bits.write(lc.extra_value, lc.extra_bits);
      const auto dc = lz77::encode_distance(s.match_dist);
      dist_enc.encode(dc.code, bits);
      bits.write(dc.extra_value, dc.extra_bits);
    }
  }
  const Bytes stream = bits.finish();
  out.insert(out.end(), stream.begin(), stream.end());
  return out;
}

void DeflateLike::decompress_block(ByteSpan payload, MutableByteSpan out) const {
  std::size_t pos = 0;
  check(get_varint(payload, pos) == out.size(), "zlib-like: size mismatch");
  if (out.empty()) return;

  BitReader bits(payload, 8 * pos);
  const auto litlen_lengths = huffman::read_code_lengths(kLitLenAlphabet, bits);
  const auto dist_lengths =
      huffman::read_code_lengths(lz77::kNumDistanceCodes, bits);
  const huffman::Decoder litlen_dec(litlen_lengths, kMaxCodeLen);
  const huffman::Decoder dist_dec(dist_lengths, kMaxCodeLen);

  // Fully sequential decode: each codeword's end position gates the next
  // codeword's start (the intra-block serial dependency of Inflate).
  std::size_t o = 0;
  while (true) {
    const std::uint16_t sym = litlen_dec.decode(bits);
    check(sym != huffman::Decoder::kInvalidSymbol, "zlib-like: invalid lit/len code");
    check(!bits.overflowed(), "zlib-like: bitstream overrun");
    if (sym < 256) {
      check(o < out.size(), "zlib-like: output overrun");
      out[o++] = static_cast<std::uint8_t>(sym);
      continue;
    }
    if (sym == kEndSymbol) break;
    const std::uint32_t lcode = sym - kFirstLengthSymbol;
    check(lcode < lz77::kNumLengthCodes, "zlib-like: bad length symbol");
    const std::uint32_t len =
        lz77::decode_length(lcode, bits.read(lz77::length_extra_bits(lcode)));
    const std::uint16_t dsym = dist_dec.decode(bits);
    check(dsym != huffman::Decoder::kInvalidSymbol, "zlib-like: invalid distance code");
    const std::uint32_t dist =
        lz77::decode_distance(dsym, bits.read(lz77::distance_extra_bits(dsym)));
    core::copy_match(out, o, dist, len);
    o += len;
  }
  check(o == out.size(), "zlib-like: size mismatch");
}

}  // namespace gompresso::baselines

namespace gompresso::baselines {
std::unique_ptr<Codec> make_deflate_like() { return std::make_unique<DeflateLike>(); }
}  // namespace gompresso::baselines
