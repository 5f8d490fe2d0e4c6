// Microbenchmarks (google-benchmark) for the hot kernels underneath the
// figure benches: bitstream refill, single-lookup Huffman decode, LZ77
// match extension, warp prefix scans, CRC32, tANS, and whole-file
// warp-simulator decompression under each of the paper's strategies.
#include <benchmark/benchmark.h>

#include "ans/tans.hpp"
#include "bench/bench_util.hpp"
#include "bitstream/bit_reader.hpp"
#include "bitstream/bit_writer.hpp"
#include "core/gompresso.hpp"
#include "datagen/datasets.hpp"
#include "huffman/code_builder.hpp"
#include "huffman/decoder.hpp"
#include "huffman/encoder.hpp"
#include "lz77/matcher.hpp"
#include "lz77/parser.hpp"
#include "sim/decompress.hpp"
#include "simt/warp.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace gompresso {
namespace {

void BM_BitReaderRead(benchmark::State& state) {
  BitWriter w;
  Rng rng(1);
  for (int i = 0; i < 100000; ++i) w.write(rng.next_u64() & 0x3FF, 10);
  const Bytes buf = w.finish();
  for (auto _ : state) {
    BitReader r(buf);
    std::uint64_t sum = 0;
    for (int i = 0; i < 100000; ++i) sum += r.read(10);
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(state.iterations() * 100000 * 10 / 8);
}
BENCHMARK(BM_BitReaderRead);

void BM_HuffmanDecode(benchmark::State& state) {
  // Realistic skewed alphabet, CWL = 10 (the paper's decode-table shape).
  Rng rng(2);
  std::vector<std::uint64_t> freqs(286);
  for (std::size_t s = 0; s < freqs.size(); ++s) freqs[s] = 1 + 100000 / (s + 1);
  const auto lengths = huffman::build_code_lengths(freqs, 10);
  const huffman::Encoder enc(huffman::assign_canonical_codes(lengths));
  const huffman::Decoder dec(lengths, 10);
  BitWriter w;
  constexpr int kSymbols = 100000;
  for (int i = 0; i < kSymbols; ++i) enc.encode(rng.next_below(286), w);
  const Bytes buf = w.finish();
  for (auto _ : state) {
    BitReader r(buf);
    std::uint32_t sum = 0;
    for (int i = 0; i < kSymbols; ++i) sum += dec.decode(r);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kSymbols);
}
BENCHMARK(BM_HuffmanDecode);

void BM_MatchLength(benchmark::State& state) {
  Bytes data = datagen::wikipedia(1 << 20);
  for (auto _ : state) {
    std::uint64_t total = 0;
    for (std::uint32_t pos = 64; pos < (1 << 20) - 64; pos += 997) {
      total += lz77::match_length(data, pos - 37, pos, 64);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_MatchLength);

void BM_WarpExclusiveScan(benchmark::State& state) {
  simt::LaneArray<std::uint64_t> vals{};
  Rng rng(3);
  for (auto& v : vals) v = rng.next_below(256);
  for (auto _ : state) {
    auto scan = simt::exclusive_scan(vals);
    benchmark::DoNotOptimize(scan);
  }
}
BENCHMARK(BM_WarpExclusiveScan);

void BM_Crc32(benchmark::State& state) {
  const Bytes data = datagen::random_bytes(1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * (1 << 20));
}
BENCHMARK(BM_Crc32);

void BM_TansDecode(benchmark::State& state) {
  const Bytes input = datagen::wikipedia(1 << 20);
  const Bytes payload = ans::encode(input);
  for (auto _ : state) {
    Bytes out = ans::decode(payload);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * (1 << 20));
}
BENCHMARK(BM_TansDecode);

void BM_LzParse(benchmark::State& state) {
  const Bytes input = datagen::wikipedia(1 << 20);
  lz77::ParserOptions popt;
  popt.dependency_elimination = state.range(0) != 0;
  for (auto _ : state) {
    auto tokens = lz77::parse(input, popt, nullptr);
    benchmark::DoNotOptimize(tokens.sequences.data());
  }
  state.SetBytesProcessed(state.iterations() * (1 << 20));
}
BENCHMARK(BM_LzParse)->Arg(0)->Arg(1);

void BM_StrategyResolve(benchmark::State& state) {
  const auto strategy = static_cast<sim::Strategy>(state.range(0));
  const Bytes input = datagen::wikipedia(4 << 20);
  CompressOptions copt;
  copt.codec = Codec::kByte;
  copt.dependency_elimination = strategy == sim::Strategy::kDependencyFree;
  const Bytes file = compress(input, copt);
  for (auto _ : state) {
    auto result = sim::decompress(file, strategy);
    benchmark::DoNotOptimize(result.data.data());
  }
  state.SetBytesProcessed(state.iterations() * (4 << 20));
  state.SetLabel(sim::strategy_name(strategy));
}
BENCHMARK(BM_StrategyResolve)
    ->Arg(static_cast<int>(sim::Strategy::kSequentialCopy))
    ->Arg(static_cast<int>(sim::Strategy::kMultiRound))
    ->Arg(static_cast<int>(sim::Strategy::kDependencyFree))
    ->Arg(static_cast<int>(sim::Strategy::kMultiPass));

}  // namespace
}  // namespace gompresso

// Custom main instead of BENCHMARK_MAIN(): emits BENCH_micro.json by
// default so the micro benches share the machine-readable trajectory
// convention of bench_decode_hotpath (see bench_util.hpp).
int main(int argc, char** argv) {
  gompresso::bench::GBenchArgs args(argc, argv, "BENCH_micro.json");
  benchmark::Initialize(&args.argc, args.argv.data());
  if (benchmark::ReportUnrecognizedArguments(args.argc, args.argv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
