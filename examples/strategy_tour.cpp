// Strategy tour: one dataset, every resolution strategy, side by side.
//
// Compresses Wikipedia-like text twice (with and without dependency
// elimination) and decompresses with each applicable strategy through the
// warp simulator (sim::decompress), printing measured speed on this
// machine and the modeled Tesla K40 throughput from the calibrated device
// model — the two views the benchmarks use. Production decompress() has
// no strategy: it resolves every block with one kernel.
#include <cstdio>

#include "core/gompresso.hpp"
#include "datagen/datasets.hpp"
#include "sim/decompress.hpp"
#include "sim/gpu_cost_model.hpp"
#include "util/stopwatch.hpp"

int main() {
  using namespace gompresso;
  using sim::Strategy;
  constexpr std::size_t kSize = 16 * 1024 * 1024;
  const Bytes input = datagen::wikipedia(kSize);
  const sim::K40Model k40;

  std::printf("%-10s %-14s %-10s %-12s %-14s %s\n", "stream", "strategy",
              "ratio", "avg rounds", "measured GB/s", "modeled K40 GB/s");

  for (const bool de : {false, true}) {
    CompressOptions copt;
    copt.codec = Codec::kByte;
    copt.dependency_elimination = de;
    CompressStats stats;
    const Bytes file = compress(input, copt, &stats);

    for (const Strategy strategy :
         {Strategy::kSequentialCopy, Strategy::kMultiRound, Strategy::kMultiPass,
          Strategy::kDependencyFree}) {
      if (strategy == Strategy::kDependencyFree && !de) continue;
      Stopwatch timer;
      const sim::SimResult r = sim::decompress(file, strategy);
      const double seconds = timer.seconds();
      if (r.data != input) {
        std::printf("ERROR: mismatch\n");
        return 1;
      }
      sim::RunProfile profile;
      profile.uncompressed_bytes = input.size();
      profile.compressed_bytes = file.size();
      profile.codec = Codec::kByte;
      profile.strategy = strategy;
      profile.avg_rounds_per_group =
          strategy == Strategy::kMultiPass
              ? static_cast<double>(r.multipass.passes)
              : r.metrics.avg_rounds_per_group();
      std::printf("%-10s %-14s %-10.2f %-12.2f %-14.2f %.2f\n",
                  de ? "DE" : "plain", sim::strategy_name(strategy), stats.ratio(),
                  profile.avg_rounds_per_group, gb_per_sec(input.size(), seconds),
                  k40.throughput_gb_per_s(profile));
    }
  }
  std::printf("\nDE streams resolve in one round; MRR pays per nesting round;\n"
              "SC serialises every copy (paper Fig. 9a ordering).\n");
  return 0;
}
