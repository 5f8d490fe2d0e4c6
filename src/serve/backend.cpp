#include "serve/backend.hpp"

#include <vector>

#include "core/block_decode.hpp"
#include "util/thread_annotations.hpp"

namespace gompresso::serve {
namespace {

/// Native-container backend: the GMPZ-specific half of the old
/// DecodeSession decode task. Holds the SeekIndex and a free list of
/// BlockDecodeContext arenas shared by all concurrent decode_block()
/// calls.
class GmpzBackend final : public ContainerBackend {
 public:
  GmpzBackend(SeekIndex index, bool verify_checksums)
      : index_(std::move(index)), verify_checksums_(verify_checksums) {}

  const char* kind_name() const override {
    return index_.is_stream() ? "gmps" : "gmpz";
  }
  std::uint64_t total_uncompressed() const override {
    return index_.total_uncompressed();
  }
  std::uint64_t source_size() const override { return index_.source_size(); }
  std::uint64_t compressed_end() const override { return index_.compressed_end(); }
  std::size_t num_blocks() const override { return index_.num_blocks(); }

  BackendBlock block(std::size_t b) const override {
    const BlockEntry& e = index_.block(b);
    return BackendBlock{e.uncomp_offset, e.uncomp_size, e.comp_offset,
                        e.comp_size};
  }

  std::size_t block_containing(std::uint64_t offset) const override {
    return index_.block_containing(offset);
  }

  void decode_block(std::size_t b, ByteSource& source,
                    util::BufferPool& buffers, MutableByteSpan out) override {
    const BlockEntry& e = index_.block(b);
    check(out.size() == e.uncomp_size, "serve: decode_block output size mismatch");
    util::PooledBuffer comp =
        buffers.acquire(static_cast<std::size_t>(e.comp_size));
    source.read_at(e.comp_offset, comp.span());
    std::unique_ptr<core::BlockDecodeContext> ctx = pop_context();
    try {
      core::decode_block_at(index_.segment_header(e.segment), comp.cspan(), out,
                            verify_checksums_, *ctx, /*lane_pool=*/nullptr);
    } catch (...) {
      push_context(std::move(ctx));
      throw;
    }
    push_context(std::move(ctx));
  }

  const SeekIndex* seek_index() const override { return &index_; }

 private:
  std::unique_ptr<core::BlockDecodeContext> pop_context() EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    if (free_contexts_.empty()) {
      return std::make_unique<core::BlockDecodeContext>();
    }
    auto ctx = std::move(free_contexts_.back());
    free_contexts_.pop_back();
    return ctx;
  }

  void push_context(std::unique_ptr<core::BlockDecodeContext> ctx)
      EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    free_contexts_.push_back(std::move(ctx));
  }

  const SeekIndex index_;
  const bool verify_checksums_;

  util::Mutex mutex_;
  std::vector<std::unique_ptr<core::BlockDecodeContext>> free_contexts_
      GUARDED_BY(mutex_);
};

}  // namespace

std::shared_ptr<ContainerBackend> make_gmpz_backend(SeekIndex index,
                                                    bool verify_checksums) {
  return std::make_shared<GmpzBackend>(std::move(index), verify_checksums);
}

}  // namespace gompresso::serve
