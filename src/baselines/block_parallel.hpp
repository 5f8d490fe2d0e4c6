// Block-parallel wrapper: the paper's CPU parallelisation recipe (§V-D).
//
// "We parallelized the single-threaded implementations of the CPU-based
// state-of-the-art compression libraries by splitting the input data into
// equally-sized blocks that are then processed by the different cores in
// parallel. We chose a block size of 2 MB ... Once a thread has completed
// decompressing a data block, it immediately processes the next block
// from a common queue."
#pragma once

#include <cstdint>

#include "baselines/codec.hpp"
#include "util/common.hpp"

namespace gompresso::baselines {

/// §V-D default: 2 MB blocks maximise parallel CPU decompression speed.
inline constexpr std::uint32_t kDefaultCpuBlockSize = 2 * 1024 * 1024;

/// Compresses `input` with `codec`, block-parallel. The framing stores
/// the block size and per-block compressed sizes, plus a CRC32 per block.
Bytes compress_parallel(const Codec& codec, ByteSpan input,
                        std::uint32_t block_size = kDefaultCpuBlockSize,
                        std::size_t num_threads = 0);

/// Decompresses a compress_parallel() file using the common-queue pool,
/// each block straight into its slice of the result (Codec's contract).
Bytes decompress_parallel(const Codec& codec, ByteSpan file,
                          std::size_t num_threads = 0,
                          bool verify_checksums = true);

}  // namespace gompresso::baselines
