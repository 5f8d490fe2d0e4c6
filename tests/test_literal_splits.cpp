// Tests for literal-run splitting (ParserOptions::max_literal_run) and
// its interplay with warp groups, DE and both codecs — the path taken by
// incompressible data under the byte codec's bounded record fields.
#include <gtest/gtest.h>

#include "core/gompresso.hpp"
#include "datagen/datasets.hpp"
#include "lz77/parser.hpp"
#include "lz77/ref_decoder.hpp"
#include "sim/decompress.hpp"

namespace gompresso {
namespace {

TEST(LiteralSplits, ParserSplitsLongRuns) {
  // Incompressible data yields literal runs far beyond the cap.
  const Bytes input = datagen::random_bytes(100000, 99);
  lz77::ParserOptions popt;
  popt.max_literal_run = 1000;
  const lz77::TokenBlock tokens = lz77::parse(input, popt, nullptr);
  lz77::validate(tokens);
  for (const auto& s : tokens.sequences) {
    EXPECT_LE(s.literal_len, 1000u);
  }
  // There must be several zero-match split sequences.
  std::size_t splits = 0;
  for (std::size_t i = 0; i + 1 < tokens.sequences.size(); ++i) {
    splits += tokens.sequences[i].match_len == 0;
  }
  EXPECT_GT(splits, 50u);
  EXPECT_EQ(lz77::decode_reference(tokens), input);
}

TEST(LiteralSplits, NoSplitsWhenUnlimited) {
  const Bytes input = datagen::random_bytes(50000, 7);
  lz77::ParserOptions popt;  // max_literal_run = 0
  const lz77::TokenBlock tokens = lz77::parse(input, popt, nullptr);
  for (std::size_t i = 0; i + 1 < tokens.sequences.size(); ++i) {
    EXPECT_NE(tokens.sequences[i].match_len, 0u) << "unexpected split at " << i;
  }
}

TEST(LiteralSplits, SplitSequencesCountTowardDeGroups) {
  // A DE parse with splits must still satisfy the single-round invariant:
  // compress incompressible-then-compressible data with the byte codec
  // (which enables splitting) and decode with the strict DE resolver.
  Bytes input = datagen::random_bytes(60000, 3);
  const Bytes tail = datagen::wikipedia(60000);
  input.insert(input.end(), tail.begin(), tail.end());

  CompressOptions opt;
  opt.codec = Codec::kByte;
  opt.dependency_elimination = true;
  const Bytes file = compress(input, opt);
  // The simulator's DE resolver throws on any intra-group dependency.
  EXPECT_EQ(sim::decompress(file, sim::Strategy::kDependencyFree).data, input);
}

TEST(LiteralSplits, ByteCodecOnPurelyIncompressibleData) {
  const Bytes input = datagen::random_bytes(300000, 11);
  for (const bool de : {false, true}) {
    CompressOptions opt;
    opt.codec = Codec::kByte;
    opt.dependency_elimination = de;
    CompressStats stats;
    const Bytes file = compress(input, opt, &stats);
    // Expansion stays bounded: 4 B of record per 8191-byte literal run.
    EXPECT_LT(file.size(), input.size() + input.size() / 100 + 1024);
    EXPECT_EQ(decompress_bytes(file), input);
  }
}

TEST(LiteralSplits, ExactSplitPositions) {
  // 256 distinct bytes contain no repeated trigram, so the parse is one
  // pure literal run; with a 100-byte cap it splits deterministically
  // into 100 + 100 + 56 (terminator).
  Bytes input(256);
  for (std::size_t i = 0; i < input.size(); ++i) input[i] = static_cast<std::uint8_t>(i);
  lz77::ParserOptions popt;
  popt.max_literal_run = 100;
  const lz77::TokenBlock tokens = lz77::parse(input, popt, nullptr);
  lz77::validate(tokens);
  EXPECT_EQ(lz77::decode_reference(tokens), input);
  ASSERT_EQ(tokens.sequences.size(), 3u);
  EXPECT_EQ(tokens.sequences[0].literal_len, 100u);
  EXPECT_EQ(tokens.sequences[0].match_len, 0u);
  EXPECT_EQ(tokens.sequences[1].literal_len, 100u);
  EXPECT_EQ(tokens.sequences[2].literal_len, 56u);
}

TEST(LiteralSplits, NoTrailingSplitWhenRunEndsAtBlockEnd) {
  // Run length exactly equals the cap at end-of-block: the terminator
  // carries the run; no extra zero-length split is appended.
  Bytes input(100);
  for (std::size_t i = 0; i < input.size(); ++i) input[i] = static_cast<std::uint8_t>(i);
  lz77::ParserOptions popt;
  popt.max_literal_run = 100;
  const lz77::TokenBlock tokens = lz77::parse(input, popt, nullptr);
  ASSERT_EQ(tokens.sequences.size(), 1u);
  EXPECT_EQ(tokens.sequences[0].literal_len, 100u);
  EXPECT_EQ(lz77::decode_reference(tokens), input);
}

}  // namespace
}  // namespace gompresso
