#include "core/decompressor.hpp"

#include "core/block_decode.hpp"
#include "util/thread_pool.hpp"
#include "util/varint.hpp"

namespace gompresso {

DecompressResult decompress(ByteSpan file, const DecompressOptions& options) {
  std::size_t pos = 0;
  const format::FileHeader header = format::FileHeader::deserialize(file, pos);
  // Catch a truncated or corrupt-length file with one clear error before
  // any block decode can trip over it.
  header.check_payload(file.size() - pos);

  // Locate every block payload from the size list (inter-block
  // parallelism needs no scanning, Fig. 3).
  const std::size_t num_blocks = header.num_blocks();
  std::vector<std::size_t> offsets(num_blocks + 1);
  offsets[0] = pos;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    offsets[b + 1] = offsets[b] + static_cast<std::size_t>(header.block_compressed_sizes[b]);
  }

  DecompressResult result;
  result.data.resize(static_cast<std::size_t>(header.uncompressed_size));

  auto decompress_one = [&](core::BlockDecodeContext& ctx, std::size_t b,
                            ThreadPool* lane_pool) {
    const ByteSpan payload_with_crc =
        file.subspan(offsets[b], offsets[b + 1] - offsets[b]);
    const std::size_t out_begin = b * header.block_size;
    const std::size_t out_len = std::min<std::size_t>(
        header.block_size, result.data.size() - out_begin);
    core::decode_block_at(header, payload_with_crc,
                          MutableByteSpan(result.data.data() + out_begin, out_len),
                          options.verify_checksums, ctx, lane_pool);
  };

  // Pick the thread plan (see the header comment).
  ThreadPool* pool = nullptr;
  std::unique_ptr<ThreadPool> own_pool;
  if (options.num_threads == 0) {
    pool = &default_pool();
  } else if (options.num_threads > 1) {
    own_pool = std::make_unique<ThreadPool>(options.num_threads);
    pool = own_pool.get();
  }

  std::vector<core::BlockDecodeContext> workers;
  if (pool == nullptr || pool->parallelism() == 1) {
    // Serial: one worker context, blocks in order.
    workers.resize(1);
    for (std::size_t b = 0; b < num_blocks; ++b) decompress_one(workers[0], b, nullptr);
  } else if (num_blocks != 1) {
    // (An empty file — zero blocks — also lands here; the parallel_for
    // over zero indices is a no-op.)
    // Inter-block parallelism: workers pull whole blocks from the queue.
    // This stays the right plan even for 2 <= num_blocks < parallelism:
    // lane fan-out only parallelises token decode, so pipelining whole
    // blocks (token decode + resolution overlapped across blocks) beats
    // serialising the blocks whenever there is more than one.
    workers.resize(pool->parallelism());
    pool->parallel_for_worker(num_blocks, [&](std::size_t worker, std::size_t b) {
      decompress_one(workers[worker], b, nullptr);
    });
  } else {
    // A single block cannot use inter-block parallelism at all: fan its
    // phase-1 token decode out across the pool by sub-block lane (every
    // codec); phase-2 LZ77 resolution then runs on this thread.
    workers.resize(1);
    decompress_one(workers[0], 0, pool);
  }

  for (const core::BlockDecodeContext& ctx : workers) {
    result.scratch.merge(ctx.scratch.stats);
  }
  return result;
}

}  // namespace gompresso
