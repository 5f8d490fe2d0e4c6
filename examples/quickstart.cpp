// Quickstart: compress and decompress a buffer with the Gompresso API.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <string>

#include "core/gompresso.hpp"
#include "datagen/datasets.hpp"
#include "util/stopwatch.hpp"

int main() {
  using namespace gompresso;

  // Some compressible input: 4 MiB of Wikipedia-like XML.
  const Bytes input = datagen::wikipedia(4 * 1024 * 1024);

  // 1. Compress with the paper's defaults: Gompresso/Bit, 256 KB blocks,
  //    8 KB window, 16 sequences per sub-block, CWL 10, DE on.
  CompressOptions options;
  options.codec = Codec::kBit;
  CompressStats stats;
  Stopwatch timer;
  const Bytes file = compress(input, options, &stats);
  const double compress_s = timer.seconds();

  std::printf("compressed %zu -> %zu bytes (ratio %.2f:1) in %.0f ms\n",
              input.size(), file.size(), stats.ratio(), compress_s * 1e3);

  // 2. Decompress. Blocks decode in parallel, each through one LZ77
  //    resolver; there is no strategy to pick (the paper's SC/MRR/DE
  //    warp strategies run in the simulator, see strategy_tour).
  timer.reset();
  const DecompressResult result = decompress(file);
  const double decompress_s = timer.seconds();

  std::printf("decompressed in %.0f ms (%.2f GB/s), %llu blocks\n",
              decompress_s * 1e3, gb_per_sec(input.size(), decompress_s),
              static_cast<unsigned long long>(result.scratch.blocks));

  // 3. Verify.
  if (result.data != input) {
    std::printf("ERROR: round trip mismatch!\n");
    return 1;
  }
  std::printf("round trip verified OK\n");

  // 4. The byte-level codec trades ratio for speed (paper §III-B).
  options.codec = Codec::kByte;
  CompressStats byte_stats;
  const Bytes byte_file = compress(input, options, &byte_stats);
  timer.reset();
  const Bytes byte_back = decompress_bytes(byte_file);
  std::printf("Gompresso/Byte: ratio %.2f:1, decompress %.2f GB/s\n",
              byte_stats.ratio(), gb_per_sec(input.size(), timer.seconds()));
  return byte_back == input ? 0 : 1;
}
