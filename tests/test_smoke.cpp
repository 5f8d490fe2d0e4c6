// End-to-end smoke tests: compress/decompress round trips across codecs
// and strategies on assorted inputs.
#include <gtest/gtest.h>

#include <string>

#include "core/gompresso.hpp"
#include "sim/decompress.hpp"
#include "util/rng.hpp"

namespace gompresso {
namespace {

Bytes make_text(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const std::string words[] = {"the", "quick", "brown", "fox", "jumps",
                               "over", "lazy", "dog", "compression", "warp"};
  Bytes out;
  while (out.size() < n) {
    const auto& w = words[rng.next_below(10)];
    out.insert(out.end(), w.begin(), w.end());
    out.push_back(' ');
  }
  out.resize(n);
  return out;
}

TEST(Smoke, BitCodecRoundTrip) {
  const Bytes input = make_text(300000, 1);
  CompressOptions opt;
  opt.codec = Codec::kBit;
  opt.block_size = 64 * 1024;
  const Bytes file = compress(input, opt);
  EXPECT_LT(file.size(), input.size());
  const Bytes back = decompress_bytes(file);
  EXPECT_EQ(back, input);
}

TEST(Smoke, ByteCodecRoundTrip) {
  const Bytes input = make_text(300000, 2);
  CompressOptions opt;
  opt.codec = Codec::kByte;
  opt.block_size = 64 * 1024;
  const Bytes file = compress(input, opt);
  const Bytes back = decompress_bytes(file);
  EXPECT_EQ(back, input);
}

TEST(Smoke, AllStrategiesAgree) {
  const Bytes input = make_text(200000, 3);
  for (const bool de : {false, true}) {
    CompressOptions opt;
    opt.codec = Codec::kByte;
    opt.dependency_elimination = de;
    opt.block_size = 32 * 1024;
    const Bytes file = compress(input, opt);
    EXPECT_EQ(decompress(file).data, input) << "de=" << de;
    for (const sim::Strategy s :
         {sim::Strategy::kSequentialCopy, sim::Strategy::kMultiRound,
          sim::Strategy::kMultiPass}) {
      EXPECT_EQ(sim::decompress(file, s).data, input)
          << sim::strategy_name(s) << " de=" << de;
    }
    if (de) {
      EXPECT_EQ(sim::decompress(file, sim::Strategy::kDependencyFree).data, input);
    }
  }
}

TEST(Smoke, IncompressibleRandom) {
  Rng rng(7);
  Bytes input(100000);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng.next_u32());
  for (const Codec c : {Codec::kByte, Codec::kBit}) {
    CompressOptions opt;
    opt.codec = c;
    const Bytes file = compress(input, opt);
    EXPECT_EQ(decompress_bytes(file), input);
  }
}

TEST(Smoke, EmptyAndTinyInputs) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5}}) {
    Bytes input(n, 'x');
    for (const Codec c : {Codec::kByte, Codec::kBit}) {
      CompressOptions opt;
      opt.codec = c;
      const Bytes file = compress(input, opt);
      EXPECT_EQ(decompress_bytes(file), input) << "n=" << n;
    }
  }
}

TEST(Smoke, HighlyRepetitiveRuns) {
  Bytes input(200000, 'a');  // dist-1 overlapping matches everywhere
  for (const bool de : {false, true}) {
    for (const Codec c : {Codec::kByte, Codec::kBit}) {
      CompressOptions opt;
      opt.codec = c;
      opt.dependency_elimination = de;
      const Bytes file = compress(input, opt);
      EXPECT_LT(file.size(), input.size() / 4);
      EXPECT_EQ(decompress_bytes(file), input);
    }
  }
}

}  // namespace
}  // namespace gompresso
