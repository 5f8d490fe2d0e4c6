// GzipIndex: a discovered seek index over an RFC 1952 gzip stream.
//
// The native container hands its block table over in the header; gzip
// has no such table, so this index *discovers* one (the rapidgzip
// recipe, PAPERS.md): cut the compressed stream into fixed-size chunks
// on a byte grid, speculatively find a DEFLATE block boundary near
// each grid point (inflate.hpp's strong header filter), decode every
// chunk in parallel into (literal, marker) token streams, then stitch
// them in order. A chunk's output is capped (kChunkOutputPerPitch), so
// a highly compressible cell becomes several chunks. The stitch is
// O(window) per chunk: it patches only the last 32 KiB of a chunk's
// tokens, which is its successor's true window. Patching the rest of the chunk against its own start window,
// fused with the CRC32 of the patched bytes, runs on the pool. Chunks
// whose speculation missed (boundary not found, or found a different
// bit than the stitch arrived at) fall back to a sequential byte
// decode of just that chunk.
//
// The result is the same shape as serve::SeekIndex: per-chunk extents
// keyed by cumulative uncompressed offset, plus each chunk's start
// window so any chunk can be decoded independently later
// (GzipBackend). It checkpoints into a "GZIX" sidecar, so reopening a
// .gz costs a header parse instead of a boundary scan.
//
// Member CRC32/ISIZE trailers are always verified during the build:
// each chunk is checksummed per member segment where it is patched,
// and crc32_combine chains the segments across chunk boundaries. The
// same segment checksums, folded per chunk, give each chunk the CRC32
// of its output; the GZIX sidecar stores it, and GzipBackend checks it
// on every decode, so a reopen that skips the build (and with it the
// trailer checks) still never serves bytes the build did not see.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ingest/gzip_format.hpp"
#include "ingest/inflate.hpp"
#include "serve/byte_source.hpp"
#include "util/common.hpp"
#include "util/thread_pool.hpp"

namespace gompresso::ingest {

inline constexpr std::uint32_t kGzipIndexMagic = 0x58495A47u;  // "GZIX"
inline constexpr std::uint8_t kGzipIndexVersion = 2;

/// One independently decodable run of DEFLATE blocks. Bits are absolute
/// within the source file; a run may span gzip member boundaries (the
/// trailer + next header bytes sit between its blocks).
struct GzipChunk {
  std::uint64_t start_bit = 0;      // first bit of the first block
  std::uint64_t end_bit = 0;        // one past the last consumed bit
  std::uint64_t uncomp_offset = 0;  // cumulative output offset
  std::uint64_t uncomp_size = 0;    // bytes this chunk produces
  std::uint32_t crc32 = 0;          // CRC32 of those bytes
  std::uint64_t window_offset = 0;  // into the shared window pool
  std::uint32_t window_bytes = 0;   // 0 (stream start) or kWindowSize
};

/// A chunk also ends at the first block boundary after it produced
/// this many times the grid pitch in output, so the output one chunk
/// holds (in the build and in a session's cache) is bounded by the
/// pitch, not by the compression ratio: at most kChunkOutputPerPitch x
/// chunk_size plus one DEFLATE block. A cell whose output runs past the
/// cap is finished in order, one capped chunk at a time.
inline constexpr std::uint64_t kChunkOutputPerPitch = 8;

struct GzipIndexOptions {
  /// Compressed bytes per chunk (grid pitch). Larger chunks amortize
  /// the boundary scan; smaller chunks parallelize and seek better.
  std::uint64_t chunk_size = 512 * 1024;
  /// Pool for the speculative chunk decodes; nullptr (or a pool with
  /// parallelism() == 1) selects the pure sequential build, which never
  /// speculates and therefore never pays a marker pass.
  ThreadPool* pool = nullptr;
};

class GzipIndex {
 public:
  /// Scans and decodes the whole stream once to discover chunk
  /// boundaries, windows, and sizes. Throws FormatError if `source`
  /// is not gzip, CorruptionError on damaged data (bad trailer CRC,
  /// truncation, trailing garbage).
  static GzipIndex build(serve::ByteSource& source,
                         const GzipIndexOptions& options = {});

  /// Sidecar round trip (same discipline as serve::SeekIndex):
  /// deserialize() validates magic/version and every invariant the
  /// decode path depends on, since a sidecar is untrusted input. A
  /// sidecar of another version (version 1 had no chunk CRCs) fails
  /// with a FormatError that names it.
  Bytes serialize() const;
  static GzipIndex deserialize(ByteSpan sidecar);
  void save(const std::string& path) const;

  std::uint64_t total_uncompressed() const { return total_uncompressed_; }
  std::uint64_t source_size() const { return source_size_; }
  /// gzip has no framing after the last trailer; trailing bytes are a
  /// build error, so the container always ends at the source end.
  std::uint64_t compressed_end() const { return source_size_; }
  std::uint64_t num_members() const { return num_members_; }

  std::size_t num_chunks() const { return chunks_.size(); }
  const GzipChunk& chunk(std::size_t i) const { return chunks_[i]; }

  /// The 32 KiB start window of chunk `i` (empty for the first chunk).
  ByteSpan window(std::size_t i) const {
    const GzipChunk& c = chunks_[i];
    return ByteSpan(windows_.data() + c.window_offset, c.window_bytes);
  }

  /// Index of the chunk containing uncompressed offset `offset`.
  /// Requires offset < total_uncompressed().
  std::size_t chunk_containing(std::uint64_t offset) const;

 private:
  std::vector<GzipChunk> chunks_;
  Bytes windows_;  // concatenated start windows
  std::uint64_t total_uncompressed_ = 0;
  std::uint64_t source_size_ = 0;
  std::uint64_t num_members_ = 0;
};

}  // namespace gompresso::ingest
