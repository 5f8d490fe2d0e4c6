// Bounded-memory streaming over the Gompresso container.
//
// A stream is a sequence of self-contained Gompresso segments, each
// compressing one chunk of the input. Compression never holds more than
// one chunk (plus its compressed form) in memory, which is how a
// production deployment would feed multi-gigabyte files like the paper's
// 1 GB Wikipedia dump through the codec. Segments preserve all
// parallelism properties (each segment is a normal block-parallel
// container).
//
// Decompression runs one of the two native decode drivers. A seekable
// input gets a DecodeSession (seek index + pipelined block prefetch, see
// serve/decode_session.hpp), so memory stays bounded by the session
// window. A non-seekable input (a pipe) is read with byte-exact framing,
// one batch of pool-parallelism blocks at a time, each batch decoded by
// the block-range decoder decompress() uses (core/block_decode.hpp) on
// the same block plan — O(parallelism x block) memory, and a lone block
// fans its sub-block lanes out. Either path accepts a bare GMPZ
// container as well as a GMPS stream. A gzip input takes the session
// path when seekable; on a pipe the whole compressed stream is buffered
// while the output streams out, with every member trailer checked.
//
// Stream layout:
//   u32le  magic "GMPS"
//   per segment: varint compressed_size, then the Gompresso container
//   varint 0 terminator
#pragma once

#include <functional>
#include <iosfwd>

#include "core/options.hpp"
#include "format/sniff.hpp"
#include "util/common.hpp"

namespace gompresso {

/// Default chunk: large enough to amortise per-segment headers, small
/// enough to bound memory (§V uses 256 KB blocks; 64 MiB ≈ 256 blocks).
inline constexpr std::size_t kDefaultChunkSize = 64 * 1024 * 1024;

/// Copy-loop granularity of the streaming decompressor (output side).
inline constexpr std::size_t kStreamCopyChunk = 1024 * 1024;

/// Stream magic "GMPS" (the container's own magic is format::kMagic).
/// Canonically defined next to the shared sniffer (format/sniff.hpp);
/// re-exported here for the stream framing code and serve::SeekIndex.
inline constexpr std::uint32_t kStreamMagic = format::kGmpsMagic;

/// Compresses `in` to `out` as a Gompresso stream. Returns the number of
/// uncompressed bytes consumed. Throws gompresso::Error on I/O failure.
std::uint64_t compress_stream(std::istream& in, std::ostream& out,
                              const CompressOptions& options = {},
                              std::size_t chunk_size = kDefaultChunkSize);

/// Decompresses a Gompresso stream from `in` to `out`. Returns the
/// number of uncompressed bytes produced.
std::uint64_t decompress_stream(std::istream& in, std::ostream& out,
                                const DecompressOptions& options = {});

/// Convenience: file-path front ends.
std::uint64_t compress_file(const std::string& input_path,
                            const std::string& output_path,
                            const CompressOptions& options = {},
                            std::size_t chunk_size = kDefaultChunkSize);
std::uint64_t decompress_file(const std::string& input_path,
                              const std::string& output_path,
                              const DecompressOptions& options = {});

}  // namespace gompresso
