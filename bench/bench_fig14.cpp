// Figure 14: energy consumption vs compression ratio (Wikipedia).
//
// Paper result: Gompresso/Bit consumes ~17 % less energy than parallel
// zlib (despite the GPU platform drawing more power, it finishes ~2x
// sooner); its energy is comparable to Zstd's.
//
// The paper measured at the wall socket with the GPU physically removed
// for CPU-only runs; here energy = platform power x modeled runtime (see
// sim/energy_model.hpp for the calibration).
#include "baselines/block_parallel.hpp"
#include "baselines/codec.hpp"
#include "bench/bench_util.hpp"
#include "datagen/datasets.hpp"

int main() {
  using namespace gompresso;
  using namespace gompresso::bench;
  print_header("Fig 14: energy vs compression ratio (wikipedia, modeled 1 GB job)");

  const sim::K40Model k40;
  const sim::CpuScalingModel cpu;
  const sim::EnergyModel energy;
  constexpr double kJobBytes = 1e9;  // normalise to the paper's 1 GB dataset

  const Bytes input = datagen::wikipedia(kBenchBytes);
  std::printf("%-22s %-8s %-14s %-12s %s\n", "codec", "ratio", "platform",
              "time s/GB", "energy J/GB");

  double zlib_energy = 0;
  double gomp_bit_energy = 0;

  // CPU baselines on the 24-thread Xeon platform.
  const std::unique_ptr<baselines::Codec> codecs[] = {
      baselines::make_snappy_like(), baselines::make_lz4_like(),
      baselines::make_zstd_like(), baselines::make_deflate_like()};
  for (const auto& codec : codecs) {
    const Bytes file = baselines::compress_parallel(*codec, input);
    const double ratio = static_cast<double>(input.size()) / file.size();
    // The 24-thread model scales a 1-thread measurement.
    const double modeled_gbps =
        cpu.scale_throughput_gb_per_s(baseline_decode_gb_per_s(*codec, file, input, 1));
    const double job_seconds = kJobBytes / 1e9 / modeled_gbps;
    const double joules = energy.cpu_energy_joules(job_seconds);
    if (codec->name() == "zlib-like") zlib_energy = joules;
    std::printf("%-22s %-8.2f %-14s %-12.3f %.1f\n",
                (codec->name() + " (CPU)").c_str(), ratio, "CPU 230 W",
                job_seconds, joules);
  }

  // Gompresso on the K40 platform.
  struct GompRow {
    const char* label;
    Codec codec;
    bool pcie_in, pcie_out;
  };
  for (const GompRow row : {GompRow{"Gomp/Bit (In/Out)", Codec::kBit, true, true},
                            GompRow{"Gomp/Byte (No PCIe)", Codec::kByte, false, false},
                            GompRow{"Gomp/Byte (In/Out)", Codec::kByte, true, true}}) {
    CompressOptions copt;
    copt.codec = row.codec;
    CompressStats stats;
    const Bytes file = compress(input, copt, &stats);
    auto m = measure_decompress(file, input.size(), row.codec,
                                Strategy::kDependencyFree);
    m.profile.pcie_in = row.pcie_in;
    m.profile.pcie_out = row.pcie_out;
    // Scale the modeled profile to the 1 GB job.
    m.profile.uncompressed_bytes = static_cast<std::uint64_t>(kJobBytes);
    m.profile.compressed_bytes =
        static_cast<std::uint64_t>(kJobBytes / stats.ratio());
    const double job_seconds = k40.seconds(m.profile);
    const double joules = energy.gpu_energy_joules(job_seconds);
    if (row.codec == Codec::kBit) gomp_bit_energy = joules;
    std::printf("%-22s %-8.2f %-14s %-12.3f %.1f\n", row.label, stats.ratio(),
                "GPU 380 W", job_seconds, joules);
  }

  if (zlib_energy > 0 && gomp_bit_energy > 0) {
    std::printf("\nGomp/Bit vs parallel zlib energy: %.1f%% saving (paper: ~17%%)\n",
                100.0 * (1.0 - gomp_bit_energy / zlib_energy));
  }
  return 0;
}
