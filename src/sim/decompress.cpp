#include "sim/decompress.hpp"

#include <vector>

#include "core/block_decode.hpp"
#include "util/crc32.hpp"
#include "util/thread_pool.hpp"

namespace gompresso::sim {
namespace {

/// One pool participant's state: its token-decode arena and its share of
/// the execution counts, merged once at the end.
struct Worker {
  core::BlockDecodeContext ctx;
  simt::WarpMetrics metrics;
  MultiPassStats multipass;
  MultiPassWorkspace workspace;
};

}  // namespace

SimResult decompress(ByteSpan file, Strategy strategy) {
  std::size_t pos = 0;
  const format::FileHeader header = format::FileHeader::deserialize(file, pos);
  header.check_payload(file.size() - pos);
  check(strategy != Strategy::kDependencyFree || header.dependency_elimination,
        "sim: DE strategy requires a DE-compressed file");

  const std::size_t num_blocks = header.num_blocks();
  std::vector<std::size_t> offsets(num_blocks + 1);
  offsets[0] = pos;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    offsets[b + 1] = offsets[b] + static_cast<std::size_t>(header.block_compressed_sizes[b]);
  }

  SimResult result;
  result.data.resize(static_cast<std::size_t>(header.uncompressed_size));
  // The library's block plan over the shared pool. The simulator models
  // a block's warp lanes itself, so a lone block ignores the lane pool.
  std::vector<Worker> workers;
  run_block_plan(&default_pool(), num_blocks, workers,
                 [&](Worker& worker, std::size_t b, ThreadPool*) {
    const std::size_t out_begin = b * header.block_size;
    const MutableByteSpan out(
        result.data.data() + out_begin,
        std::min<std::size_t>(header.block_size, result.data.size() - out_begin));
    std::uint32_t crc = 0;
    const lz77::TokenBlock* tokens = core::decode_block_tokens(
        header, file.subspan(offsets[b], offsets[b + 1] - offsets[b]), out,
        worker.ctx, /*lane_pool=*/nullptr, crc);
    if (tokens == nullptr) {
      // Stored block: copied verbatim, nothing to resolve.
    } else if (strategy == Strategy::kMultiPass) {
      MultiPassStats block_stats;
      resolve_block_multipass(tokens->sequences, tokens->literals.data(),
                              tokens->literals.size(), out, &block_stats,
                              &worker.workspace);
      worker.multipass.merge(block_stats);
    } else {
      resolve_block(tokens->sequences, tokens->literals.data(),
                    tokens->literals.size(), out, strategy, &worker.metrics);
    }
    check_corrupt(crc32(ByteSpan(out.data(), out.size())) == crc,
                  "sim: block checksum mismatch (corrupt data)");
  });

  for (const Worker& worker : workers) {
    result.metrics.merge(worker.metrics);
    result.multipass.merge(worker.multipass);
  }
  return result;
}

}  // namespace gompresso::sim
