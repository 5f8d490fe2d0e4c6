// Zstd-class baseline: hash-chain LZ77 plus a tANS entropy stage.
//
// "Zstd implements a different coding algorithm on top of LZ-compression
// that is typically faster than Huffman decoding, and we include it in
// our measurements for completeness." (§V-D)
//
// Structure mirrors Zstd's block anatomy in simplified form: the literal
// stream is tANS-coded (src/ans); the sequence stream (literal lengths,
// match lengths, offsets) is stored as packed varints rather than
// FSE-interleaved — a documented simplification that keeps the decode
// cost profile (table-driven literal decode + sequential LZ apply).
#pragma once

#include "baselines/codec.hpp"

namespace gompresso::baselines {

class ZstdLike final : public Codec {
 public:
  explicit ZstdLike(std::uint32_t chain_depth = 16) : chain_depth_(chain_depth) {}

  std::string name() const override { return "zstd-like"; }
  Bytes compress_block(ByteSpan input) const override;
  void decompress_block(ByteSpan payload, MutableByteSpan out) const override;

 private:
  std::uint32_t chain_depth_;
};

}  // namespace gompresso::baselines
