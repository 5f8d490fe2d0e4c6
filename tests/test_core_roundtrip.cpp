// Parameterized end-to-end round-trip sweep over the compressor's
// configuration space (codec x DE x block size x window x sub-block size
// x CWL) and datasets, plus option validation. The sweep also checks that
// every decoder — production decompress() and the pipe path, serial,
// block-parallel (with block ends off 16-byte boundaries) and single-block
// lane fan-out, open() sessions, and the warp simulator under each
// strategy — writes the same bytes.
#include <gtest/gtest.h>

#include "core/gompresso.hpp"
#include "datagen/datasets.hpp"
#include "sequential_buf.hpp"
#include "sim/decompress.hpp"

namespace gompresso {
namespace {

Bytes dataset(int which, std::size_t n) {
  switch (which) {
    case 0: return datagen::wikipedia(n);
    case 1: return datagen::matrix(n);
    case 2: return datagen::random_bytes(n);
    default: return Bytes(n, 'd');
  }
}

/// Every decoder must reproduce `input` from `file` (compressed with
/// `opt`): production decompress() and the pipe path (decompress_stream
/// on a non-seekable buffer) at 1 and 4 threads, for the file and for
/// the same input as one block (phase-1 lane fan-out at 4 threads); the
/// same input at a 4093-byte block size at 4 threads (block ends fall
/// off 16-byte boundaries while neighbouring blocks resolve into the
/// same buffer, so a wild copy past a block end would clobber a
/// neighbour or race with it under TSan); open() + read(); and
/// sim::decompress under every strategy the stream admits.
void expect_decoders_agree(const Bytes& input, const Bytes& file, CompressOptions opt) {
  CompressOptions single = opt;
  single.block_size = 512 * 1024;  // > input: exactly one block
  const Bytes single_file = compress(input, single);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    DecompressOptions dopt;
    dopt.num_threads = threads;
    for (const Bytes* f : {&file, &single_file}) {
      const char* which = f == &file ? "file" : "single block";
      EXPECT_EQ(decompress(*f, dopt).data, input) << which << ", threads=" << threads;
      EXPECT_EQ(testing::decompress_pipe(*f, dopt), input)
          << "pipe, " << which << ", threads=" << threads;
    }
  }
  DecompressOptions four;
  four.num_threads = 4;
  CompressOptions odd = opt;
  odd.block_size = 4093;
  EXPECT_EQ(decompress(compress(input, odd), four).data, input) << "4093-byte blocks";

  const auto session = gompresso::open(serve::memory_source(file));
  Bytes got(input.size() + 1);
  std::size_t off = 0;
  while (const std::size_t n =
             session->read(MutableByteSpan(got.data() + off, got.size() - off))) {
    off += n;
  }
  got.resize(off);
  EXPECT_EQ(got, input) << "open() + read()";

  for (const sim::Strategy s :
       {sim::Strategy::kSequentialCopy, sim::Strategy::kMultiRound,
        sim::Strategy::kMultiPass, sim::Strategy::kDependencyFree}) {
    if (s == sim::Strategy::kDependencyFree && !opt.dependency_elimination) continue;
    EXPECT_EQ(sim::decompress(file, s).data, input) << sim::strategy_name(s);
  }
}

class RoundTripSweep
    : public ::testing::TestWithParam<
          std::tuple<Codec, bool, std::uint32_t, std::uint32_t, int>> {};

TEST_P(RoundTripSweep, CompressDecompress) {
  const auto [codec, de, block_size, tokens_per_subblock, which] = GetParam();
  const Bytes input = dataset(which, 300000);
  CompressOptions opt;
  opt.codec = codec;
  opt.dependency_elimination = de;
  opt.block_size = block_size;
  opt.tokens_per_subblock = tokens_per_subblock;
  CompressStats stats;
  const Bytes file = compress(input, opt, &stats);
  EXPECT_EQ(stats.input_bytes, input.size());
  EXPECT_EQ(stats.output_bytes, file.size());
  EXPECT_EQ(stats.blocks, div_ceil<std::size_t>(input.size(), block_size));

  const DecompressResult result = decompress(file);
  EXPECT_EQ(result.data, input);
  // Block and sub-block sizes only shape phase 1, which every decoder
  // shares, so one slice of the sweep carries the equivalence check.
  if (block_size == 32u * 1024u && tokens_per_subblock == 16u) {
    expect_decoders_agree(input, file, opt);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSpace, RoundTripSweep,
    ::testing::Combine(::testing::Values(Codec::kByte, Codec::kBit),
                       ::testing::Bool(),
                       ::testing::Values(32u * 1024u, 256u * 1024u),
                       ::testing::Values(4u, 16u, 64u),
                       ::testing::Values(0, 1, 2, 3)));

class WindowSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(WindowSweep, RoundTripsAndRatioGrowsWithWindow) {
  const std::uint32_t window = GetParam();
  const Bytes input = datagen::wikipedia(300000);
  CompressOptions opt;
  opt.window_size = window;
  const Bytes file = compress(input, opt);
  EXPECT_EQ(decompress_bytes(file), input);
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSweep,
                         ::testing::Values(1024u, 4096u, 8192u, 32768u));

class CwlSweep : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(CwlSweep, RoundTrips) {
  const Bytes input = datagen::matrix(200000);
  CompressOptions opt;
  opt.codec = Codec::kBit;
  opt.codeword_limit = GetParam();
  const Bytes file = compress(input, opt);
  EXPECT_EQ(decompress_bytes(file), input);
}

INSTANTIATE_TEST_SUITE_P(Limits, CwlSweep,
                         ::testing::Values(std::uint8_t{9}, std::uint8_t{10},
                                           std::uint8_t{12}, std::uint8_t{15}));

TEST(RoundTrip, MaxMatchVariants) {
  const Bytes input = datagen::wikipedia(200000);
  for (const std::uint32_t mm : {16u, 64u, 258u}) {
    CompressOptions opt;
    opt.max_match = mm;
    const Bytes file = compress(input, opt);
    EXPECT_EQ(decompress_bytes(file), input) << "max_match=" << mm;
  }
}

TEST(RoundTrip, ExactBlockBoundary) {
  // Input exactly divisible by block size, and off-by-one around it.
  for (const std::size_t n : {std::size_t{65536}, std::size_t{65535}, std::size_t{65537},
                              std::size_t{131072}}) {
    const Bytes input = dataset(0, n);
    CompressOptions opt;
    opt.block_size = 65536;
    const Bytes file = compress(input, opt);
    EXPECT_EQ(decompress_bytes(file), input) << "n=" << n;
  }
}

TEST(RoundTrip, ThreadCountsAgree) {
  const Bytes input = datagen::matrix(600000);
  CompressOptions opt;
  opt.block_size = 64 * 1024;
  opt.num_threads = 1;
  const Bytes serial = compress(input, opt);
  opt.num_threads = 4;
  const Bytes parallel = compress(input, opt);
  EXPECT_EQ(serial, parallel) << "compression must be deterministic across thread counts";
  DecompressOptions dopt;
  dopt.num_threads = 4;
  EXPECT_EQ(decompress(serial, dopt).data, input);
}

TEST(RoundTrip, RatioStatsAreConsistent) {
  const Bytes input = datagen::wikipedia(500000);
  CompressOptions opt;
  CompressStats stats;
  const Bytes file = compress(input, opt, &stats);
  EXPECT_NEAR(stats.ratio(), static_cast<double>(input.size()) / file.size(), 1e-9);
  EXPECT_EQ(stats.parse.match_bytes + stats.parse.literal_bytes, input.size());
}

TEST(Options, ValidationRejectsBadConfigs) {
  const Bytes input(2048, 'v');
  {
    CompressOptions opt;
    opt.block_size = 100;  // < 1 KiB
    EXPECT_THROW(compress(input, opt), Error);
  }
  {
    CompressOptions opt;
    opt.window_size = 1000;  // not a power of two
    EXPECT_THROW(compress(input, opt), Error);
  }
  {
    CompressOptions opt;
    opt.window_size = 65536;  // > 32768
    EXPECT_THROW(compress(input, opt), Error);
  }
  {
    CompressOptions opt;
    opt.min_match = 2;
    EXPECT_THROW(compress(input, opt), Error);
  }
  {
    CompressOptions opt;
    opt.max_match = 300;  // > 258
    EXPECT_THROW(compress(input, opt), Error);
  }
  {
    CompressOptions opt;
    opt.tokens_per_subblock = 0;
    EXPECT_THROW(compress(input, opt), Error);
  }
  {
    CompressOptions opt;
    opt.codeword_limit = 8;  // < 9 cannot hold a 286-symbol alphabet
    EXPECT_THROW(compress(input, opt), Error);
  }
}

TEST(Options, DeStrategyOnNonDeFileRejected) {
  // The simulator refuses the single-round DE resolver on a stream that
  // may hold intra-group dependencies.
  const Bytes input = dataset(0, 50000);
  CompressOptions opt;
  opt.dependency_elimination = false;
  const Bytes file = compress(input, opt);
  EXPECT_THROW(sim::decompress(file, sim::Strategy::kDependencyFree), Error);
}

TEST(Options, StrategyNames) {
  EXPECT_STREQ(sim::strategy_name(sim::Strategy::kSequentialCopy), "SC");
  EXPECT_STREQ(sim::strategy_name(sim::Strategy::kMultiRound), "MRR");
  EXPECT_STREQ(sim::strategy_name(sim::Strategy::kDependencyFree), "DE");
  EXPECT_STREQ(sim::strategy_name(sim::Strategy::kMultiPass), "MRR-multipass");
}

TEST(IntraBlock, SingleBlockScalesAcrossSubblocks) {
  // The block plan, on both the compress and decompress side: a block's
  // sub-block lanes fan out across the pool (lane_fanouts == 1) exactly
  // when there is one block and a multi-participant pool — for every
  // codec, since the byte codec rides the same lane-pool path as the bit
  // codec. Every other shape runs whole blocks. The bytes
  // agree at every shape, and compress() output is identical at every
  // thread count.
  constexpr std::uint32_t kBlock = 64 * 1024;
  const Bytes text = datagen::wikipedia(5 * kBlock);
  for (const Codec codec : {Codec::kBit, Codec::kByte}) {
    for (const std::size_t blocks : {0, 1, 2, 5}) {
      const Bytes input(text.begin(), text.begin() + static_cast<long>(blocks * kBlock));
      Bytes serial_file;
      for (const std::size_t threads : {1, 2, 4}) {
        const std::string shape = "codec " + std::to_string(static_cast<int>(codec)) +
                                  ", " + std::to_string(blocks) + " blocks, " +
                                  std::to_string(threads) + " threads";
        CompressOptions opt;
        opt.codec = codec;
        opt.block_size = kBlock;
        opt.num_threads = threads;
        CompressStats stats;
        const Bytes file = compress(input, opt, &stats);
        if (threads == 1) serial_file = file;
        EXPECT_EQ(file, serial_file) << shape;

        DecompressOptions dopt;
        dopt.num_threads = threads;
        const DecompressResult result = decompress(file, dopt);
        EXPECT_EQ(result.data, input) << shape;

        const std::uint64_t fanouts = blocks == 1 && threads > 1 ? 1 : 0;
        EXPECT_EQ(stats.scratch.lane_fanouts, fanouts) << "compress, " << shape;
        EXPECT_EQ(result.scratch.lane_fanouts, fanouts) << "decompress, " << shape;
      }
    }
  }
}

TEST(IntraBlock, ByteCodecFanOutDeterminismAcrossCorpora) {
  // 1T vs NT byte-equality for the byte codec on every datagen corpus.
  for (const int which : {0, 1, 2}) {
    const Bytes input = dataset(which, 200000);
    for (const std::uint32_t block_size : {512u * 1024u, 48u * 1024u}) {
      CompressOptions opt;
      opt.codec = Codec::kByte;
      opt.block_size = block_size;
      const Bytes file = compress(input, opt);
      DecompressOptions one;
      one.num_threads = 1;
      DecompressOptions many;
      many.num_threads = 4;
      const DecompressResult serial = decompress(file, one);
      const DecompressResult parallel = decompress(file, many);
      ASSERT_EQ(serial.data, input) << which << "/" << block_size;
      ASSERT_EQ(parallel.data, input) << which << "/" << block_size;
    }
  }
}

TEST(IntraBlock, EmptyInputDecompressesOnAnyThreadCount) {
  // Zero blocks must not take the single-block fan-out path (regression:
  // it used to read past the end of the offsets table under threads).
  const Bytes input;
  CompressOptions opt;
  opt.codec = Codec::kBit;
  const Bytes file = compress(input, opt);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    DecompressOptions dopt;
    dopt.num_threads = threads;
    const DecompressResult r = decompress(file, dopt);
    EXPECT_TRUE(r.data.empty()) << "threads=" << threads;
    EXPECT_EQ(r.scratch.lane_fanouts, 0u);
  }
}

TEST(IntraBlock, ManyBlocksKeepBlockParallelPath) {
  const Bytes input = datagen::wikipedia(300000);
  CompressOptions opt;
  opt.codec = Codec::kBit;
  opt.block_size = 32 * 1024;  // ~10 blocks >= 2 threads
  const Bytes file = compress(input, opt);
  DecompressOptions dopt;
  dopt.num_threads = 2;
  const DecompressResult r = decompress(file, dopt);
  EXPECT_EQ(r.data, input);
  EXPECT_EQ(r.scratch.lane_fanouts, 0u);
}

TEST(Scratch, SteadyStateDecodeAllocatesNothing) {
  // Eight identical blocks, one worker: the arena is pre-reserved from
  // the header's block-size bound, so every block (including the first)
  // must reuse the buffers, and identical trees must hit the table cache
  // after the first build — zero allocations per block.
  const Bytes tile = datagen::wikipedia(64 * 1024);
  Bytes input;
  for (int i = 0; i < 8; ++i) input.insert(input.end(), tile.begin(), tile.end());
  CompressOptions opt;
  opt.codec = Codec::kBit;
  opt.block_size = 64 * 1024;
  const Bytes file = compress(input, opt);

  DecompressOptions dopt;
  dopt.num_threads = 1;
  const DecompressResult r = decompress(file, dopt);
  EXPECT_EQ(r.data, input);
  EXPECT_EQ(r.scratch.blocks, 8u);
  EXPECT_EQ(r.scratch.buffer_reuses, 8u);  // pre-reserved: no block grew
  EXPECT_EQ(r.scratch.table_builds, 1u);
  EXPECT_EQ(r.scratch.table_reuses, 7u);
}

TEST(Scratch, ByteSteadyStateDecodeAllocatesNothing) {
  // The byte codec rides the same pre-reserved arena: every block of a
  // file must be a buffer reuse, from the first one on.
  const Bytes tile = datagen::wikipedia(64 * 1024);
  Bytes input;
  for (int i = 0; i < 8; ++i) input.insert(input.end(), tile.begin(), tile.end());
  CompressOptions opt;
  opt.codec = Codec::kByte;
  opt.block_size = 64 * 1024;
  const Bytes file = compress(input, opt);

  DecompressOptions dopt;
  dopt.num_threads = 1;
  const DecompressResult r = decompress(file, dopt);
  EXPECT_EQ(r.data, input);
  EXPECT_EQ(r.scratch.blocks, 8u);
  EXPECT_EQ(r.scratch.buffer_reuses, 8u);
}

TEST(Metrics, DecompressionReportsWarpActivity) {
  const Bytes input = datagen::wikipedia(300000);
  CompressOptions opt;
  opt.dependency_elimination = false;
  const Bytes file = compress(input, opt);
  const sim::SimResult r = sim::decompress(file, sim::Strategy::kMultiRound);
  EXPECT_EQ(r.data, input);
  EXPECT_GT(r.metrics.groups, 0u);
  EXPECT_GE(r.metrics.rounds, r.metrics.groups);
  EXPECT_GT(r.metrics.ballots, 0u);
  EXPECT_FALSE(r.metrics.bytes_per_round.empty());
}

}  // namespace
}  // namespace gompresso
