// Tests that reproduce the paper's worked examples literally.
#include <gtest/gtest.h>

#include "lz77/matcher.hpp"
#include "lz77/parser.hpp"
#include "lz77/ref_decoder.hpp"
#include "sim/mrr_multipass.hpp"
#include "sim/warp_lz77.hpp"

namespace gompresso {
namespace {

using sim::Strategy;
using sim::strategy_name;

/// Paper Fig. 4 / Fig. 6: the token stream
///   'aac', (0,3), 'b', (3,3), 'd', (3,4)
/// (absolute-position back-references) decompresses to the 15-byte
/// output shown in Fig. 6, and MRR resolves it in exactly two rounds:
/// T1's reference in round 1, then T2 and T3 together once Sequence 1's
/// output is available (HWM past T1's write).
lz77::TokenBlock fig4_tokens() {
  lz77::TokenBlock tokens;
  // Sequence 1: literals "aac", match at abs pos 0, len 3 -> dist 3.
  tokens.sequences.push_back({3, 3, 3});
  // Sequence 2: literal "b", match at abs pos 3, len 3; write pos 7 -> dist 4.
  tokens.sequences.push_back({1, 3, 4});
  // Sequence 3: literal "d", match at abs pos 3, len 4; write pos 11 -> dist 8.
  tokens.sequences.push_back({1, 4, 8});
  tokens.sequences.push_back({0, 0, 0});
  tokens.literals = {'a', 'a', 'c', 'b', 'd'};
  tokens.uncompressed_size = 15;
  return tokens;
}

TEST(PaperFig4, ReferenceDecodeMatchesFig6) {
  const lz77::TokenBlock tokens = fig4_tokens();
  const Bytes expect = {'a', 'a', 'c', 'a', 'a', 'c', 'b', 'a',
                        'a', 'c', 'd', 'a', 'a', 'c', 'b'};
  EXPECT_EQ(lz77::decode_reference(tokens), expect);
}

TEST(PaperFig6, MrrResolvesInTwoRounds) {
  const lz77::TokenBlock tokens = fig4_tokens();
  Bytes out(tokens.uncompressed_size);
  simt::WarpMetrics metrics;
  sim::resolve_block(tokens.sequences, tokens.literals.data(),
                     tokens.literals.size(), out, Strategy::kMultiRound, &metrics);
  EXPECT_EQ(out, lz77::decode_reference(tokens));
  // Fig. 6: step 1 writes all literals; step 2 T1 copies B1; step 3 T2
  // and T3 copy B2/B3 -> two MRR rounds.
  EXPECT_EQ(metrics.rounds, 2u);
  EXPECT_EQ(metrics.groups, 1u);
  ASSERT_EQ(metrics.refs_per_round.size(), 2u);
  EXPECT_EQ(metrics.refs_per_round[0], 1u);  // T1
  EXPECT_EQ(metrics.refs_per_round[1], 2u);  // T2 and T3 together
}

TEST(PaperFig6, AllStrategiesProduceFig6Output) {
  const lz77::TokenBlock tokens = fig4_tokens();
  const Bytes expect = lz77::decode_reference(tokens);
  for (const Strategy s : {Strategy::kSequentialCopy, Strategy::kMultiRound}) {
    Bytes out(tokens.uncompressed_size);
    sim::resolve_block(tokens.sequences, tokens.literals.data(),
                       tokens.literals.size(), out, s);
    EXPECT_EQ(out, expect) << strategy_name(s);
  }
  Bytes out(tokens.uncompressed_size);
  sim::resolve_block_multipass(tokens.sequences, tokens.literals.data(),
                               tokens.literals.size(), out);
  EXPECT_EQ(out, expect);
}

/// Paper Fig. 1: LZ77 emits a literal for 'c' (no match in the window)
/// and a back-reference (0,3) for "aac" with minimum match length 3.
TEST(PaperFig1, GreedyParseOfIllustration) {
  const std::string s = "aacaacbacadd";
  lz77::ParserOptions popt;
  popt.matcher.min_match = 3;
  popt.matcher.staleness = 0;
  const lz77::TokenBlock tokens = lz77::parse(as_bytes(s), popt, nullptr);
  EXPECT_EQ(lz77::decode_reference(tokens), Bytes(s.begin(), s.end()));
  // The first sequence carries the literal prefix "aac" (no match
  // possible yet) and the match for the second "aac" at distance 3.
  ASSERT_GE(tokens.sequences.size(), 2u);
  EXPECT_EQ(tokens.sequences[0].literal_len, 3u);
  EXPECT_EQ(tokens.sequences[0].match_len, 3u);
  EXPECT_EQ(tokens.sequences[0].match_dist, 3u);
}

/// Paper Fig. 8: with DE, T2's dependency on T1 is avoided by choosing a
/// shorter match that ends below the warp HWM. Construct the scenario
/// directly against the matcher.
TEST(PaperFig8, DeConstraintShortensMatch) {
  // Input: "XYZW....XYZW" where the second occurrence could match 4
  // bytes, but the DE constraint only allows sources below position 10.
  const std::string s = "XYZWabcdeXYZW";
  const ByteSpan input = as_bytes(s);
  lz77::MatcherConfig cfg;
  cfg.min_match = 3;
  cfg.staleness = 0;
  lz77::HashMatcher m(cfg);
  for (std::uint32_t p = 0; p + 3 <= 9; ++p) m.insert(input, p);

  // Unconstrained: the full 4-byte match.
  const lz77::Match full = m.find(input, 9, 9);
  ASSERT_TRUE(full.found());
  EXPECT_EQ(full.len, 4u);

  // DE with a back-reference occupying [3, 10): source capped at 3 bytes
  // would be [0,3) -> the match shortens, exactly Fig. 8's "<2,'db',
  // (278,3)>" adjustment.
  lz77::DeConstraint de;
  de.begin_group(2);
  de.add_backref(3, 10);
  const lz77::Match capped = m.find(input, 9, 9, &de);
  ASSERT_TRUE(capped.found());
  EXPECT_EQ(capped.len, 3u);
  EXPECT_EQ(capped.pos, 0u);
}

}  // namespace
}  // namespace gompresso
