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
// Decompression: a seekable input of any container (GMPS, bare GMPZ,
// gzip) is a DecodeSession over the stream (serve/decode_session.hpp),
// memory bounded by the session window. On a pipe, GMPS/GMPZ is read
// with byte-exact framing, one pool's parallelism of blocks per batch,
// through the block-range decoder decompress() uses
// (core/block_decode.hpp): O(parallelism x block) memory, and a lone
// block fans out its sub-block lanes. A gzip pipe is buffered whole and
// decoded by a session over the buffer. Its memory is the compressed
// stream, one 32 KiB index window per chunk, 2·T index-build cells and
// the session's prefetch window of chunks (a copy reads each chunk
// once, so it caches no more). A chunk ends after 512 KiB of compressed
// input or, past 4 MiB of output, at the next DEFLATE block boundary
// (ingest::kChunkOutputPerPitch), so a cell or a cached chunk holds at
// most 4 MiB plus one block of output (2 B per byte as build tokens),
// and the windows take at most 1/16 of the compressed plus 1/128 of
// the uncompressed size.
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
