#include "baselines/zstd_like.hpp"

#include "ans/tans.hpp"
#include "lz77/parser.hpp"
#include "lz77/ref_decoder.hpp"
#include "util/varint.hpp"

namespace gompresso::baselines {

Bytes ZstdLike::compress_block(ByteSpan input) const {
  Bytes out;
  put_varint(out, input.size());
  if (input.empty()) return out;

  lz77::ParserOptions popt;
  popt.matcher.window_size = 32 * 1024;
  popt.matcher.min_match = 4;  // zstd's minimum match
  popt.matcher.max_match = 258;
  popt.matcher.staleness = 0;
  const lz77::TokenBlock tokens = lz77::parse_chained(input, popt, chain_depth_);

  // Sequence stream: packed varints (lit_len, match_len, dist), then
  // tANS-coded — zstd FSE-codes its sequence fields; coding the packed
  // byte stream captures most of that entropy win in simplified form.
  Bytes seq_raw;
  put_varint(seq_raw, tokens.sequences.size());
  for (const auto& s : tokens.sequences) {
    put_varint(seq_raw, s.literal_len);
    put_varint(seq_raw, s.match_len);
    if (s.match_len != 0) put_varint(seq_raw, s.match_dist);
  }
  const Bytes seq_stream = ans::encode(seq_raw);
  // Literal stream: tANS-coded.
  const Bytes literals = ans::encode(tokens.literals);

  put_varint(out, seq_stream.size());
  out.insert(out.end(), seq_stream.begin(), seq_stream.end());
  put_varint(out, literals.size());
  out.insert(out.end(), literals.begin(), literals.end());
  return out;
}

void ZstdLike::decompress_block(ByteSpan payload, MutableByteSpan out) const {
  std::size_t pos = 0;
  check(get_varint(payload, pos) == out.size(), "zstd-like: size mismatch");
  if (out.empty()) return;

  const std::uint64_t seq_bytes = get_varint(payload, pos);
  check(pos + seq_bytes <= payload.size(), "zstd-like: truncated sequences");
  const Bytes seq_stream =
      ans::decode(payload.subspan(pos, static_cast<std::size_t>(seq_bytes)));
  pos += static_cast<std::size_t>(seq_bytes);
  const std::uint64_t lit_bytes = get_varint(payload, pos);
  check(pos + lit_bytes <= payload.size(), "zstd-like: truncated literals");
  const Bytes literals =
      ans::decode(payload.subspan(pos, static_cast<std::size_t>(lit_bytes)));

  // The (lit_len, match_len, dist) stream is exactly lz77::Sequence, so
  // the production resolver does the copying and the bounds checks.
  std::size_t spos = 0;
  const std::uint64_t n_seq = get_varint(seq_stream, spos);
  // A sequence costs at least two varint bytes.
  check(n_seq <= seq_stream.size(), "zstd-like: implausible sequence count");
  std::vector<lz77::Sequence> sequences(static_cast<std::size_t>(n_seq));
  for (lz77::Sequence& seq : sequences) {
    const std::uint64_t lit_len = get_varint(seq_stream, spos);
    const std::uint64_t match_len = get_varint(seq_stream, spos);
    const std::uint64_t dist = match_len != 0 ? get_varint(seq_stream, spos) : 0;
    check(((lit_len | match_len | dist) >> 32) == 0, "zstd-like: sequence field overflow");
    seq = {static_cast<std::uint32_t>(lit_len), static_cast<std::uint32_t>(match_len),
           static_cast<std::uint32_t>(dist)};
  }
  const std::uint64_t written =
      lz77::resolve_span(sequences, literals.data(), literals.size(), out, /*base=*/0);
  check(written == out.size(), "zstd-like: size mismatch");
}

}  // namespace gompresso::baselines

namespace gompresso::baselines {
std::unique_ptr<Codec> make_zstd_like() { return std::make_unique<ZstdLike>(); }
}  // namespace gompresso::baselines
