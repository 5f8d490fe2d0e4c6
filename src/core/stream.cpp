#include "core/stream.hpp"

#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <vector>

#include "core/block_decode.hpp"
#include "core/compressor.hpp"
#include "core/decompressor.hpp"
#include "core/open.hpp"
#include "format/sniff.hpp"
#include "serve/decode_session.hpp"
#include "util/byte_reader.hpp"
#include "util/thread_pool.hpp"
#include "util/varint.hpp"

namespace gompresso {
namespace {

void write_bytes(std::ostream& out, ByteSpan data) {
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  check(out.good(), "stream: write failed");
}

/// The read loop of a seekable input and of a gzip pipe: open() sniffs
/// `source` (GMPS, bare GMPZ, or gzip) and a DecodeSession copies it to
/// `out`, memory bounded by its prefetch window. Returns the bytes
/// written; `compressed_end` (if set) gets where the container ends.
std::uint64_t copy_session(std::unique_ptr<serve::ByteSource> source,
                           std::ostream& out, const DecompressOptions& options,
                           std::uint64_t* compressed_end = nullptr) {
  OpenOptions oopt;
  oopt.session.num_threads = options.num_threads;
  oopt.session.verify_checksums = options.verify_checksums;
  // The copy reads each block once, in order, so the prefetch window is
  // all the cache it can use (cache_blocks rounds up to the window).
  oopt.session.cache_blocks = 0;
  std::unique_ptr<serve::DecodeSession> session = open(std::move(source), oopt);

  Bytes chunk(kStreamCopyChunk);
  std::uint64_t total = 0;
  while (true) {
    const std::size_t n = session->read(MutableByteSpan(chunk.data(), chunk.size()));
    if (n == 0) break;
    write_bytes(out, ByteSpan(chunk.data(), n));
    total += n;
  }
  if (compressed_end != nullptr) *compressed_end = session->compressed_end();
  return total;
}

/// Gzip on a pipe: buffers the whole compressed stream (a pipe cannot
/// be rewound, and the index build and the session each read it), then
/// decodes it as a seekable .gz (memory bound: see core/stream.hpp).
/// The byte-exact reader that sniffed `prefix` holds no lookahead, so
/// the stream cursor sits right after it.
std::uint64_t decompress_gzip_pipe(std::istream& in, ByteSpan prefix,
                                   std::ostream& out,
                                   const DecompressOptions& options) {
  Bytes data(prefix.begin(), prefix.end());
  while (in.good()) {
    const std::size_t old = data.size();
    data.resize(old + kStreamCopyChunk);
    in.read(reinterpret_cast<char*>(data.data() + old),
            static_cast<std::streamsize>(kStreamCopyChunk));
    data.resize(old + static_cast<std::size_t>(in.gcount()));
  }
  check_io(in.eof(), "stream: read failed");
  return copy_session(serve::memory_source(ByteSpan(data.data(), data.size())),
                      out, options);
}

/// Decode path for non-seekable inputs (pipes): one segment header at a
/// time through the byte-exact reader, then batches of blocks through
/// the block-range decoder decompress() uses, on the same block plan. A
/// batch is one pool's parallelism of blocks, so memory is one batch of
/// compressed + decoded blocks — the same O(parallelism x block) shape
/// as a session window, never a whole segment.
std::uint64_t decompress_stream_sequential(std::istream& in, std::ostream& out,
                                           const DecompressOptions& options) {
  // buffer_size 1: a pipe cannot seek back, so the reader must consume
  // byte-exactly — anything after the terminator belongs to the caller
  // (e.g. a second concatenated stream). Framing varints and headers are
  // a few hundred bytes per 64 MiB segment; the block payloads, which
  // are the volume, go through read_exact's direct bulk path.
  util::IstreamReader reader(in, /*buffer_size=*/1);

  std::unique_ptr<ThreadPool> own_pool;
  ThreadPool* const pool = resolve_pool(options.num_threads, own_pool);
  const std::size_t batch = pool != nullptr ? pool->parallelism() : 1;

  std::vector<core::BlockDecodeContext> contexts;
  Bytes comp;     // one batch's payloads, back to back
  Bytes decoded;  // and their uncompressed bytes
  std::uint64_t total = 0;
  const auto decode_blocks = [&](const format::FileHeader& header) {
    // A pipe has no payload length to validate the header's sizes
    // against (the seekable path bounds them by the real file size), and
    // the decode buffer is allocated before any payload arrives — so cap
    // the block size absolutely; 1 GiB is far beyond any plausible
    // configuration (the CLI caps --block at the same bound).
    check(header.block_size <= (1u << 30), "stream: implausible block size");
    for (std::size_t b = 0; b < header.num_blocks(); b += batch) {
      const std::size_t n = std::min(batch, header.num_blocks() - b);
      comp.clear();
      std::uint64_t out_len = 0;
      for (std::size_t i = b; i < b + n; ++i) {
        const std::uint64_t comp_size = header.block_compressed_sizes[i];
        const std::uint64_t uncomp_len = std::min<std::uint64_t>(
            header.block_size,
            header.uncompressed_size - static_cast<std::uint64_t>(i) * header.block_size);
        // Bound each block's compressed size by what any codec here
        // could plausibly emit — the worst case is well under 16x even
        // with degenerate sub-block settings — so a crafted huge size
        // fails with a clean Error, not std::length_error.
        check(comp_size <= 16 * uncomp_len + 65536,
              "stream: implausible compressed block size");
        // Grow the staging buffer while reading rather than trusting
        // comp_size up front: allocation never outruns bytes actually
        // received, so a lying size fails at EOF ("truncated input")
        // with memory proportional to what was sent, not claimed.
        for (std::uint64_t left = comp_size; left != 0;) {
          const std::size_t step =
              static_cast<std::size_t>(std::min<std::uint64_t>(left, 16u << 20));
          const std::size_t filled = comp.size();
          comp.resize(filled + step);
          reader.read_exact(MutableByteSpan(comp.data() + filled, step));
          left -= step;
        }
        out_len += uncomp_len;
      }
      decoded.resize(static_cast<std::size_t>(out_len));
      core::decode_block_range(header, b, n, comp, decoded, options.verify_checksums,
                               pool, contexts);
      write_bytes(out, decoded);
      total += decoded.size();
    }
  };

  // One shared classifier decides the container — the same
  // format::sniff_container() the session open path uses, so a format
  // readable when seekable is readable on a pipe too.
  std::uint8_t prefix[format::kSniffBytes];
  reader.read_exact(MutableByteSpan(prefix, sizeof prefix));
  switch (format::sniff_container(ByteSpan(prefix, sizeof prefix))) {
    case format::ContainerKind::kGmpz: {
      // A bare GMPZ container (accepted on either path): no framing, so
      // there is no payload size to validate against — the size list
      // alone delimits the blocks, and consumption stops exactly after
      // the last. The block-count invariant still must hold, or a
      // corrupt header claiming fewer blocks silently truncates the
      // output.
      const format::FileHeader header =
          format::FileHeader::deserialize_body(reader);
      header.check_block_count();
      decode_blocks(header);
      return total;
    }
    case format::ContainerKind::kGzip:
      return decompress_gzip_pipe(in, ByteSpan(prefix, sizeof prefix), out,
                                  options);
    case format::ContainerKind::kGmps:
      break;  // segment loop below
    case format::ContainerKind::kUnknown:
      throw FormatError("stream: bad magic");
  }
  while (true) {
    const std::uint64_t segment_size = reader.read_varint();
    if (segment_size == 0) break;  // terminator
    check(segment_size <= (1ull << 40), "stream: implausible segment size");
    const std::uint64_t segment_begin = reader.offset();
    const format::FileHeader header = format::FileHeader::deserialize(reader);
    const std::uint64_t header_bytes = reader.offset() - segment_begin;
    check(header_bytes <= segment_size, "stream: segment smaller than its header");
    header.check_payload(segment_size - header_bytes);
    decode_blocks(header);
  }
  return total;
}

}  // namespace

std::uint64_t compress_stream(std::istream& in, std::ostream& out,
                              const CompressOptions& options,
                              std::size_t chunk_size) {
  check(chunk_size >= options.block_size, "stream: chunk smaller than a block");
  Bytes magic;
  put_u32le(magic, kStreamMagic);
  write_bytes(out, magic);

  std::uint64_t total = 0;
  Bytes chunk(chunk_size);
  while (in.good()) {
    in.read(reinterpret_cast<char*>(chunk.data()),
            static_cast<std::streamsize>(chunk.size()));
    const std::size_t got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;
    total += got;
    const Bytes segment = compress(ByteSpan(chunk.data(), got), options);
    Bytes framing;
    put_varint(framing, segment.size());
    write_bytes(out, framing);
    write_bytes(out, segment);
  }
  check(in.eof() || in.good(), "stream: read failed");
  out.put(0);  // zero-length terminator
  check(out.good(), "stream: write failed");
  return total;
}

std::uint64_t decompress_stream(std::istream& in, std::ostream& out,
                                const DecompressOptions& options) {
  const std::istream::pos_type base = in.tellg();
  if (base == std::istream::pos_type(-1)) {
    in.clear();  // a failed tellg may latch failbit
    return decompress_stream_sequential(in, out, options);
  }
  // A seekable input is a session over the stream itself.
  std::uint64_t end = 0;
  const std::uint64_t total =
      copy_session(serve::istream_source(in), out, options, &end);
  // Leave the stream where sequential consumption would: just past the
  // terminator (the session's random-access reads scattered the cursor).
  in.clear();
  in.seekg(base + static_cast<std::streamoff>(end));
  return total;
}

std::uint64_t compress_file(const std::string& input_path,
                            const std::string& output_path,
                            const CompressOptions& options, std::size_t chunk_size) {
  std::ifstream in(input_path, std::ios::binary);
  check(in.good(), "stream: cannot open input file");
  std::ofstream out(output_path, std::ios::binary);
  check(out.good(), "stream: cannot open output file");
  return compress_stream(in, out, options, chunk_size);
}

std::uint64_t decompress_file(const std::string& input_path,
                              const std::string& output_path,
                              const DecompressOptions& options) {
  std::ifstream in(input_path, std::ios::binary);
  check(in.good(), "stream: cannot open input file");
  std::ofstream out(output_path, std::ios::binary);
  check(out.good(), "stream: cannot open output file");
  return decompress_stream(in, out, options);
}

}  // namespace gompresso
