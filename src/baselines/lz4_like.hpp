// LZ4-class baseline: greedy byte-aligned LZ77 with nibble-packed tokens.
//
// Mirrors the LZ4 block format's structure: a token byte holding the
// literal length (high nibble) and match length - 4 (low nibble), each
// extended with 255-chained bytes; raw literals; a 2-byte little-endian
// offset. Decoding is a branch-light sequential loop — the fastest class
// of CPU decompressor, which is why LZ4 anchors the right side of the
// speed axis in Fig. 13.
#pragma once

#include "baselines/codec.hpp"

namespace gompresso::baselines {

class Lz4Like final : public Codec {
 public:
  std::string name() const override { return "lz4-like"; }
  Bytes compress_block(ByteSpan input) const override;
  void decompress_block(ByteSpan payload, MutableByteSpan out) const override;
};

}  // namespace gompresso::baselines
