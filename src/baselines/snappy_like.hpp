// Snappy-class baseline: byte-aligned LZ with tag-dispatched elements.
//
// Mirrors Snappy's format structure: each element starts with a tag byte
// whose low 2 bits select literal / 1-byte-offset copy / 2-byte-offset
// copy, trading a little ratio for an extremely cheap decode dispatch.
#pragma once

#include "baselines/codec.hpp"

namespace gompresso::baselines {

class SnappyLike final : public Codec {
 public:
  std::string name() const override { return "snappy-like"; }
  Bytes compress_block(ByteSpan input) const override;
  void decompress_block(ByteSpan payload, MutableByteSpan out) const override;
};

}  // namespace gompresso::baselines
