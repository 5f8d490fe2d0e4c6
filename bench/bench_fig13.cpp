// Figure 13: decompression speed vs compression ratio — Gompresso against
// the block-parallel CPU libraries, for both datasets.
//
// Paper result (Tesla K40 vs 2x E5-2620v2 / 24 threads):
//   * Gompresso/Bit ~2x faster than parallel zlib at ~9-10 % lower ratio,
//   * Gompresso/Byte ~1.35x faster than parallel LZ4 (PCIe-bound: the
//     In/Out series is limited by the 13 GB/s link),
//   * byte-level codecs sit right/low (fast, modest ratio), bit-level
//     codecs sit left/high.
//
// Output: one row per codec/series with the measured wall numbers from
// this machine and the modeled cross-platform numbers (24-thread CPU
// scaling for the baselines, K40 cost model + PCIe for Gompresso). A
// baseline is measured at T (the shared pool) and at 1 thread; the
// 24-thread model scales the 1-thread number, so the modeled column does
// not depend on this host's core count.
#include <map>
#include <string>

#include "baselines/block_parallel.hpp"
#include "baselines/codec.hpp"
#include "bench/bench_util.hpp"
#include "datagen/datasets.hpp"
#include "util/thread_pool.hpp"

namespace {

/// Prints lz4-like and snappy-like decode speed against zlib-like's for
/// one measured column, and whether the paper's "byte-level codecs are
/// faster" shape holds there.
void print_measured_shape(const char* column, const std::map<std::string, double>& gbps) {
  const double zlib = gbps.at("zlib-like");
  const double lz4 = gbps.at("lz4-like") / zlib;
  const double snappy = gbps.at("snappy-like") / zlib;
  std::printf("  %-4s lz4-like %.2fx, snappy-like %.2fx zlib-like: %s\n", column, lz4,
              snappy,
              lz4 > 1.0 && snappy > 1.0 ? "byte codecs faster (paper's shape)"
                                        : "INVERTED (a byte codec is not faster)");
}

}  // namespace

int main() {
  using namespace gompresso;
  using namespace gompresso::bench;
  print_header("Fig 13: decompression speed vs compression ratio");

  const sim::K40Model k40;
  const sim::CpuScalingModel cpu;
  const std::size_t T = default_pool().parallelism();

  for (const char* name : {"wikipedia", "matrix"}) {
    const Bytes input = datagen::by_name(name, kBenchBytes);
    std::printf("\n--- %s (%zu MiB) ---\n", name, input.size() >> 20);
    std::printf("%-22s %-8s %-9s %-9s %s\n", "codec", "ratio", "GB/s T", "GB/s 1T",
                "modeled platform GB/s");

    // CPU baselines: block-parallel (2 MB blocks, common queue, §V-D).
    const std::unique_ptr<baselines::Codec> codecs[] = {
        baselines::make_snappy_like(), baselines::make_lz4_like(),
        baselines::make_zstd_like(), baselines::make_deflate_like()};
    std::map<std::string, double> at_t;
    std::map<std::string, double> at_1;
    for (const auto& codec : codecs) {
      const Bytes file = baselines::compress_parallel(*codec, input);
      const double ratio = static_cast<double>(input.size()) / file.size();
      const double measured = baseline_decode_gb_per_s(*codec, file, input, 0);
      const double single = baseline_decode_gb_per_s(*codec, file, input, 1);
      at_t[codec->name()] = measured;
      at_1[codec->name()] = single;
      std::printf("%-22s %-8.2f %-9.2f %-9.2f %.2f   (24-thread CPU)\n",
                  (codec->name() + " (CPU)").c_str(), ratio, measured, single,
                  cpu.scale_throughput_gb_per_s(single));
    }
    std::printf("Shape check (measured, T=%zu and T=1):\n", T);
    print_measured_shape("T", at_t);
    print_measured_shape("1T", at_1);

    // Gompresso/Bit: end-to-end including PCIe both ways (as in Fig. 13).
    {
      CompressOptions copt;
      copt.codec = Codec::kBit;
      CompressStats stats;
      const Bytes file = compress(input, copt, &stats);
      auto m = measure_decompress(file, input.size(), Codec::kBit,
                                  Strategy::kDependencyFree);
      m.profile.pcie_in = true;
      m.profile.pcie_out = true;
      std::printf("%-22s %-8.2f %-19.2f %.2f   (K40, In/Out)\n", "Gomp/Bit",
                  stats.ratio(), gb_per_sec(input.size(), m.seconds),
                  k40.throughput_gb_per_s(m.profile));
    }

    // Gompresso/Byte: the paper's three transfer series.
    {
      CompressOptions copt;
      copt.codec = Codec::kByte;
      CompressStats stats;
      const Bytes file = compress(input, copt, &stats);
      auto m = measure_decompress(file, input.size(), Codec::kByte,
                                  Strategy::kDependencyFree);
      struct Series {
        const char* label;
        bool in, out;
      };
      for (const Series s : {Series{"Gomp/Byte (No PCIe)", false, false},
                             Series{"Gomp/Byte (In)", true, false},
                             Series{"Gomp/Byte (In/Out)", true, true}}) {
        m.profile.pcie_in = s.in;
        m.profile.pcie_out = s.out;
        std::printf("%-22s %-8.2f %-19.2f %.2f   (K40%s)\n", s.label,
                    stats.ratio(), gb_per_sec(input.size(), m.seconds),
                    k40.throughput_gb_per_s(m.profile),
                    s.out ? ", PCIe-bound" : "");
      }
    }
  }
  std::printf(
      "\nShape check (modeled): Gomp/Bit ~2x zlib; Gomp/Byte (In/Out) capped\n"
      "near the 13 GB/s PCIe link; byte codecs fast/low-ratio, bit codecs\n"
      "slower/high-ratio.\n");
  return 0;
}
