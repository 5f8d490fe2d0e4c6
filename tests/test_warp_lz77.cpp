// Tests for the warp simulator's LZ77 resolution engine (sim/): equivalence with
// the sequential reference decoder across strategies, round-count
// invariants (DE = 1 round), metrics accounting, and malformed input.
#include <gtest/gtest.h>

#include "sim/mrr_multipass.hpp"
#include "sim/warp_lz77.hpp"
#include "datagen/datasets.hpp"
#include "lz77/parser.hpp"
#include "lz77/ref_decoder.hpp"
#include "util/rng.hpp"

namespace gompresso::sim {
namespace {

Bytes resolve_with(const lz77::TokenBlock& tokens, Strategy strategy,
                   simt::WarpMetrics* metrics = nullptr,
                   MultiPassStats* mp = nullptr) {
  Bytes out(tokens.uncompressed_size);
  if (strategy == Strategy::kMultiPass) {
    resolve_block_multipass(tokens.sequences, tokens.literals.data(),
                            tokens.literals.size(), out, mp);
  } else {
    resolve_block(tokens.sequences, tokens.literals.data(), tokens.literals.size(),
                  out, strategy, metrics);
  }
  return out;
}

class StrategyEquivalence
    : public ::testing::TestWithParam<std::tuple<Strategy, bool, int>> {};

TEST_P(StrategyEquivalence, MatchesReferenceDecoder) {
  const auto [strategy, de, which] = GetParam();
  if (strategy == Strategy::kDependencyFree && !de) {
    GTEST_SKIP() << "DE strategy requires DE-parsed stream";
  }
  Bytes input;
  switch (which) {
    case 0: input = datagen::wikipedia(150000); break;
    case 1: input = datagen::matrix(150000); break;
    case 2: input = datagen::random_bytes(60000); break;
    case 3: input = Bytes(100000, 'w'); break;
    case 4: {
      datagen::NestingConfig nc;
      nc.families = 2;
      input = datagen::make_nesting(80000, nc);
      break;
    }
    default: FAIL();
  }
  lz77::ParserOptions popt;
  popt.dependency_elimination = de;
  const lz77::TokenBlock tokens = lz77::parse(input, popt, nullptr);
  const Bytes expect = lz77::decode_reference(tokens);
  ASSERT_EQ(expect, input);
  EXPECT_EQ(resolve_with(tokens, strategy), input);
}

INSTANTIATE_TEST_SUITE_P(
    All, StrategyEquivalence,
    ::testing::Combine(::testing::Values(Strategy::kSequentialCopy,
                                         Strategy::kMultiRound,
                                         Strategy::kDependencyFree,
                                         Strategy::kMultiPass),
                       ::testing::Bool(), ::testing::Values(0, 1, 2, 3, 4)));

TEST(WarpLz77, DeStreamsResolveInOneRoundUnderMrr) {
  // On a DE-parsed stream MRR's HWM logic may still take >1 round for
  // same-group literal references, but the dedicated DE resolver always
  // takes exactly one round per group. Verify the DE resolver's count.
  const Bytes input = datagen::wikipedia(200000);
  lz77::ParserOptions popt;
  popt.dependency_elimination = true;
  const lz77::TokenBlock tokens = lz77::parse(input, popt, nullptr);
  simt::WarpMetrics metrics;
  EXPECT_EQ(resolve_with(tokens, Strategy::kDependencyFree, &metrics), input);
  EXPECT_EQ(metrics.rounds, metrics.groups);
  EXPECT_EQ(metrics.max_rounds_in_group, 1u);
}

TEST(WarpLz77, DeStrategyRejectsNestedStream) {
  // A non-DE parse of nested data must be rejected by the DE resolver.
  datagen::NestingConfig nc;
  nc.families = 1;  // maximal nesting
  const Bytes input = datagen::make_nesting(100000, nc);
  lz77::ParserOptions popt;  // no dependency elimination
  const lz77::TokenBlock tokens = lz77::parse(input, popt, nullptr);
  Bytes out(tokens.uncompressed_size);
  EXPECT_THROW(resolve_block(tokens.sequences, tokens.literals.data(),
                             tokens.literals.size(), out,
                             Strategy::kDependencyFree, nullptr),
               Error);
}

TEST(WarpLz77, MrrRoundsReflectNestingDepth) {
  for (const std::uint32_t families : {1u, 2u, 4u, 8u, 16u, 32u}) {
    datagen::NestingConfig nc;
    nc.families = families;
    const Bytes input = datagen::make_nesting(200000, nc);
    lz77::ParserOptions popt;
    popt.matcher.staleness = 0;  // nearest-match parse induces the chains
    const lz77::TokenBlock tokens = lz77::parse(input, popt, nullptr);
    simt::WarpMetrics metrics;
    ASSERT_EQ(resolve_with(tokens, Strategy::kMultiRound, &metrics), input);
    const double expected = datagen::expected_depth(families);
    const double measured = metrics.avg_rounds_per_group();
    // Allow boundary effects (first group of the block parses long
    // literals, phase drift at group boundaries).
    EXPECT_GT(measured, expected * 0.7) << "families=" << families;
    EXPECT_LT(measured, expected * 1.3 + 2.0) << "families=" << families;
  }
}

TEST(WarpLz77, MrrBytesPerRoundSumsToMatchBytes) {
  const Bytes input = datagen::matrix(150000);
  lz77::ParserOptions popt;
  lz77::ParseStats stats;
  const lz77::TokenBlock tokens = lz77::parse(input, popt, &stats);
  simt::WarpMetrics metrics;
  ASSERT_EQ(resolve_with(tokens, Strategy::kMultiRound, &metrics), input);
  std::uint64_t sum = 0;
  for (const auto b : metrics.bytes_per_round) sum += b;
  EXPECT_EQ(sum, stats.match_bytes);
  // Round 1 must dominate on real data (paper Fig. 9b).
  ASSERT_FALSE(metrics.bytes_per_round.empty());
  EXPECT_GT(metrics.bytes_per_round[0], sum / 2);
}

TEST(WarpLz77, ScCountsOneRoundPerBackref) {
  const Bytes input = datagen::wikipedia(100000);
  lz77::ParserOptions popt;
  const lz77::TokenBlock tokens = lz77::parse(input, popt, nullptr);
  std::uint64_t refs = 0;
  for (const auto& s : tokens.sequences) refs += s.match_len != 0;
  simt::WarpMetrics metrics;
  ASSERT_EQ(resolve_with(tokens, Strategy::kSequentialCopy, &metrics), input);
  EXPECT_EQ(metrics.rounds, refs);
}

TEST(WarpLz77, MultipassSpillsOnlyNestedRefs) {
  // DE stream: nothing to spill beyond pass 1.
  const Bytes de_input = datagen::wikipedia(100000);
  lz77::ParserOptions de_opt;
  de_opt.dependency_elimination = true;
  const lz77::TokenBlock de_tokens = lz77::parse(de_input, de_opt, nullptr);
  MultiPassStats de_stats;
  ASSERT_EQ(resolve_with(de_tokens, Strategy::kMultiPass, nullptr, &de_stats), de_input);
  EXPECT_EQ(de_stats.passes, 1u);
  EXPECT_EQ(de_stats.spilled_refs, 0u);

  // Deep nesting: many passes, many spills.
  datagen::NestingConfig nc;
  nc.families = 1;
  const Bytes nested = datagen::make_nesting(100000, nc);
  lz77::ParserOptions plain;
  plain.matcher.staleness = 0;  // nearest-match parse induces the chains
  const lz77::TokenBlock nested_tokens = lz77::parse(nested, plain, nullptr);
  MultiPassStats nested_stats;
  ASSERT_EQ(resolve_with(nested_tokens, Strategy::kMultiPass, nullptr, &nested_stats),
            nested);
  EXPECT_GT(nested_stats.passes, 1u);
  EXPECT_GT(nested_stats.spilled_refs, 0u);
  EXPECT_GT(nested_stats.spilled_bytes, nested_stats.spilled_refs * 8);
}

TEST(WarpLz77, HandcraftedSelfOverlapAcrossLanes) {
  // 33 sequences: force a second group whose first lane self-overlaps.
  lz77::TokenBlock tokens;
  Bytes expect;
  for (int k = 0; k < 33; ++k) {
    lz77::Sequence s;
    s.literal_len = 1;
    s.match_len = 5;
    s.match_dist = 1;  // run of the literal byte
    tokens.sequences.push_back(s);
    tokens.literals.push_back(static_cast<std::uint8_t>('A' + k % 26));
    for (int i = 0; i < 6; ++i) expect.push_back(static_cast<std::uint8_t>('A' + k % 26));
  }
  tokens.sequences.push_back({0, 0, 0});
  tokens.uncompressed_size = static_cast<std::uint32_t>(expect.size());
  for (const Strategy s : {Strategy::kSequentialCopy, Strategy::kMultiRound,
                           Strategy::kDependencyFree, Strategy::kMultiPass}) {
    EXPECT_EQ(resolve_with(tokens, s), expect) << strategy_name(s);
  }
}

TEST(WarpLz77, HandcraftedCrossGroupReference) {
  // 80 sequences spanning three warp groups; every sequence after the
  // first emits 2 literals then copies 4 bytes from a short distance,
  // so later groups' matches read earlier groups' match output.
  lz77::TokenBlock tokens;
  Bytes expect;
  for (int k = 0; k < 80; ++k) {
    lz77::Sequence s;
    s.literal_len = 2;
    const std::uint8_t a = static_cast<std::uint8_t>(k);
    const std::uint8_t b = static_cast<std::uint8_t>(k + 100);
    tokens.literals.push_back(a);
    tokens.literals.push_back(b);
    expect.push_back(a);
    expect.push_back(b);
    s.match_len = 4;
    s.match_dist = k == 0 ? 2 : 6;  // k=0: only 2 bytes exist yet
    tokens.sequences.push_back(s);
    const std::size_t src = expect.size() - s.match_dist;
    for (unsigned i = 0; i < s.match_len; ++i) expect.push_back(expect[src + i]);
  }
  tokens.sequences.push_back({0, 0, 0});
  tokens.uncompressed_size = static_cast<std::uint32_t>(expect.size());
  for (const Strategy s :
       {Strategy::kSequentialCopy, Strategy::kMultiRound, Strategy::kMultiPass}) {
    EXPECT_EQ(resolve_with(tokens, s), expect) << strategy_name(s);
  }
}

TEST(WarpLz77, RejectsDistancePastStart) {
  lz77::TokenBlock tokens;
  tokens.sequences.push_back({1, 4, 9});
  tokens.sequences.push_back({0, 0, 0});
  tokens.literals = {'a'};
  tokens.uncompressed_size = 5;
  Bytes out(5);
  for (const Strategy s : {Strategy::kSequentialCopy, Strategy::kMultiRound}) {
    EXPECT_THROW(resolve_block(tokens.sequences, tokens.literals.data(), 1, out, s),
                 Error);
  }
  EXPECT_THROW(
      resolve_block_multipass(tokens.sequences, tokens.literals.data(), 1, out),
      Error);
}

TEST(WarpLz77, RejectsOutputSizeMismatch) {
  lz77::TokenBlock tokens;
  tokens.sequences.push_back({3, 0, 0});
  tokens.literals = {'a', 'b', 'c'};
  tokens.uncompressed_size = 3;
  Bytes small(2);
  EXPECT_THROW(resolve_block(tokens.sequences, tokens.literals.data(), 3, small,
                             Strategy::kMultiRound),
               Error);
  Bytes big(4);
  EXPECT_THROW(resolve_block(tokens.sequences, tokens.literals.data(), 3, big,
                             Strategy::kMultiRound),
               Error);
}

TEST(WarpLz77, RejectsLiteralCountMismatch) {
  lz77::TokenBlock tokens;
  tokens.sequences.push_back({3, 0, 0});
  tokens.literals = {'a', 'b', 'c', 'd'};
  tokens.uncompressed_size = 3;
  Bytes out(3);
  EXPECT_THROW(resolve_block(tokens.sequences, tokens.literals.data(), 4, out,
                             Strategy::kMultiRound),
               Error);
}

}  // namespace
}  // namespace gompresso::sim
