#include "baselines/block_parallel.hpp"

#include <algorithm>
#include <memory>

#include "util/crc32.hpp"
#include "util/thread_pool.hpp"
#include "util/varint.hpp"

namespace gompresso::baselines {
namespace {

constexpr std::uint32_t kFrameMagic = 0x42504C47u;  // "GLPB"

void run_indexed(std::size_t count, std::size_t num_threads,
                 const std::function<void(std::size_t)>& fn) {
  std::unique_ptr<ThreadPool> own_pool;
  if (ThreadPool* pool = resolve_pool(num_threads, own_pool)) {
    pool->parallel_for(count, fn);
  } else {
    for (std::size_t i = 0; i < count; ++i) fn(i);
  }
}

}  // namespace

Bytes compress_parallel(const Codec& codec, ByteSpan input, std::uint32_t block_size,
                        std::size_t num_threads) {
  check(block_size >= 1024, "block_parallel: block size too small");
  const std::size_t num_blocks = input.empty() ? 0 : div_ceil(input.size(), std::size_t{block_size});
  std::vector<Bytes> payloads(num_blocks);

  run_indexed(num_blocks, num_threads, [&](std::size_t b) {
    const std::size_t begin = b * block_size;
    const std::size_t len = std::min<std::size_t>(block_size, input.size() - begin);
    const ByteSpan block = input.subspan(begin, len);
    Bytes payload;
    put_u32le(payload, crc32(block));
    const Bytes encoded = codec.compress_block(block);
    payload.insert(payload.end(), encoded.begin(), encoded.end());
    payloads[b] = std::move(payload);
  });

  Bytes out;
  put_u32le(out, kFrameMagic);
  put_varint(out, input.size());
  put_varint(out, block_size);
  put_varint(out, num_blocks);
  for (const auto& p : payloads) put_varint(out, p.size());
  for (const auto& p : payloads) out.insert(out.end(), p.begin(), p.end());
  return out;
}

Bytes decompress_parallel(const Codec& codec, ByteSpan file, std::size_t num_threads,
                          bool verify_checksums) {
  std::size_t pos = 0;
  check(get_u32le(file, pos) == kFrameMagic, "block_parallel: bad magic");
  const std::uint64_t total = get_varint(file, pos);
  const std::uint64_t block_size = get_varint(file, pos);
  const std::uint64_t num_blocks = get_varint(file, pos);
  check(block_size >= 1024, "block_parallel: bad block size");
  check(num_blocks == (total == 0 ? 0 : div_ceil(total, block_size)),
        "block_parallel: block count mismatch");

  std::vector<std::size_t> offsets(static_cast<std::size_t>(num_blocks) + 1);
  std::vector<std::uint64_t> sizes(static_cast<std::size_t>(num_blocks));
  for (auto& s : sizes) s = get_varint(file, pos);
  offsets[0] = pos;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    offsets[b + 1] = offsets[b] + static_cast<std::size_t>(sizes[b]);
  }
  check(offsets[num_blocks] == file.size(), "block_parallel: file size mismatch");

  // Each block decodes straight into its slice (Codec's span contract).
  Bytes out(static_cast<std::size_t>(total));
  run_indexed(static_cast<std::size_t>(num_blocks), num_threads, [&](std::size_t b) {
    const ByteSpan payload_with_crc = file.subspan(offsets[b], offsets[b + 1] - offsets[b]);
    std::size_t p = 0;
    const std::uint32_t stored_crc = get_u32le(payload_with_crc, p);
    const std::size_t begin = b * static_cast<std::size_t>(block_size);
    const MutableByteSpan block(
        out.data() + begin,
        std::min<std::size_t>(static_cast<std::size_t>(block_size), out.size() - begin));
    codec.decompress_block(payload_with_crc.subspan(p), block);
    if (verify_checksums) {
      check(crc32(block) == stored_crc, "block_parallel: checksum mismatch");
    }
  });
  return out;
}

}  // namespace gompresso::baselines
