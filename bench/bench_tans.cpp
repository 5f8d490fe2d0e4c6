// Future-work experiment (§VI): Gompresso with an alternative entropy
// coder. "Future work includes determining the extent to which our
// techniques can be applied to alternative coding ... schemes, and
// evaluating their performance."
//
// Compares the three codecs — Byte (no entropy stage), Bit (limited-
// length Huffman), Tans (shared tANS models) — on ratio, decode-table
// footprint (the Fig. 12 occupancy currency) and decompression speed.
#include "bench/bench_util.hpp"
#include "core/bit_codec.hpp"
#include "datagen/datasets.hpp"

int main() {
  using namespace gompresso;
  using namespace gompresso::bench;
  print_header("Future work (SVI): Gompresso/Tans vs /Bit vs /Byte");

  const sim::K40Model k40;
  std::printf("%-10s %-12s %-8s %-16s %-14s %s\n", "dataset", "codec", "ratio",
              "tables/block B", "measured GB/s", "modeled K40 GB/s (In/Out)");

  for (const char* name : {"wikipedia", "matrix"}) {
    const Bytes input = datagen::by_name(name, kBenchBytes);
    struct Row {
      const char* label;
      Codec codec;
      std::size_t tables;
    };
    for (const Row row : {Row{"Byte", Codec::kByte, 0},
                          Row{"Bit", Codec::kBit, core::decode_tables_footprint(10)},
                          Row{"Tans", Codec::kTans, 2 * (std::size_t{1} << 11) * 4}}) {
      CompressOptions copt;
      copt.codec = row.codec;
      // Tans streams carry per-stream state overhead; 128-sequence
      // sub-blocks amortise it while keeping 100s of decode lanes/block.
      if (row.codec == Codec::kTans) copt.tokens_per_subblock = 128;
      CompressStats stats;
      const Bytes file = compress(input, copt, &stats);
      auto m = measure_decompress(file, input.size(), row.codec,
                                  Strategy::kDependencyFree);
      // All three codecs decode through the pre-reserved scratch arena:
      // steady-state production block decode must not grow a buffer.
      const DecompressResult production = decompress(file);
      check(production.scratch.blocks > 0 &&
                production.scratch.blocks == production.scratch.buffer_reuses,
            "bench_tans: block decode allocated in the steady state");
      m.profile.pcie_in = true;
      m.profile.pcie_out = true;
      std::printf("%-10s %-12s %-8.2f %-16zu %-14.2f %.2f\n", name, row.label,
                  stats.ratio(), row.tables, gb_per_sec(input.size(), m.seconds),
                  k40.throughput_gb_per_s(m.profile));
    }
  }
  std::printf(
      "\nShape check: Tans sits between Byte and Bit on ratio (order-0 coding\n"
      "of packed records cedes some of Huffman's semantic-symbol win) with a\n"
      "faster modeled entropy stage (the SV-D observation about Zstd's coder\n"
      "class); Byte remains the speed-first point.\n");
  return 0;
}
