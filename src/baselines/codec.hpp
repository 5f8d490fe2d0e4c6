// Common interface for the CPU baseline codecs of §V-D.
//
// The paper compares Gompresso against Snappy, LZ4, Zstd and zlib. This
// environment is offline, so src/baselines reimplements each library's
// *algorithmic class* from scratch (byte-aligned greedy LZ for
// Snappy/LZ4, LZ + Huffman bitstream for zlib, LZ + tANS for Zstd); see
// DESIGN.md §1 for the substitution rationale. The block_parallel wrapper
// applies the paper's parallelisation recipe: "splitting the input data
// into equally-sized blocks that are then processed by the different
// cores ... a block size of 2 MB ... a common queue".
#pragma once

#include <memory>
#include <string>

#include "util/common.hpp"

namespace gompresso::baselines {

/// A single-block codec: compresses one self-contained block.
class Codec {
 public:
  virtual ~Codec() = default;

  /// Short display name used by the benchmark tables ("lz4-like", ...).
  virtual std::string name() const = 0;

  /// Compresses one block into a self-contained payload.
  virtual Bytes compress_block(ByteSpan input) const = 0;

  /// Decompresses one payload produced by compress_block into `out`,
  /// sized by the caller: the payload's size varint must equal
  /// out.size(). Writes only inside `out`, so blocks decode in parallel
  /// into adjacent slices of one buffer. Throws gompresso::Error on a
  /// malformed payload, leaving `out` unspecified.
  virtual void decompress_block(ByteSpan payload, MutableByteSpan out) const = 0;
};

/// Factories for the four §V-D baselines.
std::unique_ptr<Codec> make_lz4_like();
std::unique_ptr<Codec> make_snappy_like();
std::unique_ptr<Codec> make_deflate_like();  // the zlib/gzip stand-in
std::unique_ptr<Codec> make_zstd_like();

}  // namespace gompresso::baselines
