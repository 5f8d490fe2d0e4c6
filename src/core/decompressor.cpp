#include "core/decompressor.hpp"

#include "core/block_decode.hpp"
#include "util/thread_pool.hpp"

namespace gompresso {

DecompressResult decompress(ByteSpan file, const DecompressOptions& options) {
  std::size_t pos = 0;
  const format::FileHeader header = format::FileHeader::deserialize(file, pos);
  // Catch a truncated or corrupt-length file with one clear error before
  // any block decode can trip over it.
  header.check_payload(file.size() - pos);

  DecompressResult result;
  result.data.resize(static_cast<std::size_t>(header.uncompressed_size));
  std::unique_ptr<ThreadPool> own_pool;
  std::vector<core::BlockDecodeContext> workers;
  core::decode_block_range(header, 0, header.num_blocks(), file.subspan(pos),
                           result.data, options.verify_checksums,
                           resolve_pool(options.num_threads, own_pool), workers);
  for (const core::BlockDecodeContext& ctx : workers) {
    result.scratch.merge(ctx.scratch.stats);
  }
  return result;
}

}  // namespace gompresso
