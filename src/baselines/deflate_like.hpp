// DEFLATE-class baseline: the zlib/gzip stand-in for Fig. 13/14.
//
// LZ77 with zlib-style hash chains (32 KB window, lazy-free greedy parse,
// configurable chain depth) followed by a dynamic canonical Huffman
// bitstream using the RFC 1951 alphabets (single lit/len tree + distance
// tree, 15-bit codes). One sequential bitstream per block — the
// variable-length codes create the bit-serial dependency that, as the
// paper observes for pigz, forces single-threaded decoding *within* a
// block and motivates Gompresso's sub-block design.
#pragma once

#include "baselines/codec.hpp"

namespace gompresso::baselines {

class DeflateLike final : public Codec {
 public:
  /// `chain_depth` trades compression time for ratio (zlib levels).
  explicit DeflateLike(std::uint32_t chain_depth = 32) : chain_depth_(chain_depth) {}

  std::string name() const override { return "zlib-like"; }
  Bytes compress_block(ByteSpan input) const override;
  void decompress_block(ByteSpan payload, MutableByteSpan out) const override;

 private:
  std::uint32_t chain_depth_;
};

}  // namespace gompresso::baselines
