#include "ingest/gzip_backend.hpp"

#include <utility>

namespace gompresso::ingest {
namespace {

class GzipBackend final : public serve::ContainerBackend {
 public:
  explicit GzipBackend(GzipIndex index) : index_(std::move(index)) {}
  const GzipIndex& index() const { return index_; }

  const char* kind_name() const override { return "gzip"; }
  std::uint64_t total_uncompressed() const override {
    return index_.total_uncompressed();
  }
  std::uint64_t source_size() const override { return index_.source_size(); }
  std::uint64_t compressed_end() const override {
    return index_.compressed_end();
  }
  std::size_t num_blocks() const override { return index_.num_chunks(); }

  serve::BackendBlock block(std::size_t b) const override {
    const GzipChunk& c = index_.chunk(b);
    serve::BackendBlock e;
    e.uncomp_offset = c.uncomp_offset;
    e.uncomp_size = c.uncomp_size;
    e.comp_offset = c.start_bit >> 3;
    e.comp_size = div_ceil<std::uint64_t>(c.end_bit, 8) - e.comp_offset;
    return e;
  }

  std::size_t block_containing(std::uint64_t offset) const override {
    return index_.chunk_containing(offset);
  }

  void decode_block(std::size_t b, serve::ByteSource& source,
                    util::BufferPool& buffers, MutableByteSpan out) override {
    const GzipChunk& c = index_.chunk(b);
    check(out.size() == c.uncomp_size, "serve: decode_block output size mismatch");
    const std::uint64_t base = c.start_bit >> 3;
    const std::uint64_t slice_len = div_ceil<std::uint64_t>(c.end_bit, 8) - base;
    util::PooledBuffer comp = buffers.acquire(static_cast<std::size_t>(slice_len));
    source.read_at(base, comp.span());
    ByteSink sink(out, index_.window(b));
    InflateScratch scratch;
    ChunkResult res;
    // The slice ends at the chunk's last bit, so the stream looks
    // "partial" relative to the whole file; a run past the slice would
    // surface as kNeedMoreData. A correct chunk consumes exactly
    // [start_bit, end_bit), so anything else is damage.
    const ChunkStatus status = inflate_chunk(
        comp.cspan(), c.start_bit - 8 * base, c.end_bit - 8 * base,
        index_.source_size() - base, sink, scratch, res);
    check_corrupt(status != ChunkStatus::kNeedMoreData,
                  "gzip: chunk ran past its indexed extent");
    check_corrupt(8 * base + res.end_bit == c.end_bit,
                  "gzip: chunk ended at an unexpected bit");
    check_corrupt(sink.produced() == out.size(),
                  "gzip: chunk produced an unexpected byte count");
  }

 private:
  const GzipIndex index_;
};

}  // namespace

std::shared_ptr<serve::ContainerBackend> make_gzip_backend(GzipIndex index) {
  return std::make_shared<GzipBackend>(std::move(index));
}

std::shared_ptr<serve::ContainerBackend> make_gzip_backend(
    serve::ByteSource& source, const GzipIndexOptions& options) {
  return std::make_shared<GzipBackend>(GzipIndex::build(source, options));
}

const GzipIndex* gzip_index(const serve::ContainerBackend& backend) {
  const auto* gzip = dynamic_cast<const GzipBackend*>(&backend);
  return gzip != nullptr ? &gzip->index() : nullptr;
}

}  // namespace gompresso::ingest
