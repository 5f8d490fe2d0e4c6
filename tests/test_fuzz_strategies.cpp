// Randomised property tests: arbitrary *valid* token blocks must resolve
// identically under every strategy and survive codec round trips.
#include <gtest/gtest.h>

#include "core/bit_codec.hpp"
#include "core/byte_codec.hpp"
#include "sim/mrr_multipass.hpp"
#include "sim/warp_lz77.hpp"
#include "lz77/ref_decoder.hpp"
#include "util/rng.hpp"

namespace gompresso {
namespace {

/// Generates a random structurally-valid token block: random literal
/// runs, matches whose distances stay within the produced output, and
/// a deliberate bias toward warp-group-boundary and overlap edge cases.
lz77::TokenBlock random_tokens(Rng& rng, std::size_t target_sequences) {
  lz77::TokenBlock tokens;
  std::uint64_t out_pos = 0;
  for (std::size_t i = 0; i < target_sequences; ++i) {
    lz77::Sequence s;
    // Literal run: mostly short, occasionally zero or long.
    const auto lit_kind = rng.next_below(10);
    s.literal_len = lit_kind == 0   ? 0
                    : lit_kind == 1 ? static_cast<std::uint32_t>(rng.next_below(500))
                                    : static_cast<std::uint32_t>(rng.next_below(12));
    if (out_pos + s.literal_len == 0) s.literal_len = 1;  // first output byte
    for (std::uint32_t k = 0; k < s.literal_len; ++k) {
      tokens.literals.push_back(static_cast<std::uint8_t>(rng.next_u32()));
    }
    out_pos += s.literal_len;
    // Match: length 3..64, distance 1..out_pos (bias small distances to
    // exercise overlap and intra-group dependencies).
    s.match_len = 3 + static_cast<std::uint32_t>(rng.next_below(62));
    const std::uint64_t max_dist = out_pos;
    s.match_dist = static_cast<std::uint32_t>(
        rng.next_below(2) == 0 ? 1 + rng.next_below(std::min<std::uint64_t>(max_dist, 20))
                               : 1 + rng.next_below(max_dist));
    out_pos += s.match_len;
    tokens.sequences.push_back(s);
  }
  tokens.sequences.push_back({0, 0, 0});
  tokens.uncompressed_size = static_cast<std::uint32_t>(out_pos);
  return tokens;
}

class StrategyFuzz : public ::testing::TestWithParam<int> {};

TEST_P(StrategyFuzz, AllStrategiesMatchReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 17);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.next_below(200);
    const lz77::TokenBlock tokens = random_tokens(rng, n);
    lz77::validate(tokens);
    const Bytes expect = lz77::decode_reference(tokens);

    for (const sim::Strategy s :
         {sim::Strategy::kSequentialCopy, sim::Strategy::kMultiRound}) {
      Bytes out(tokens.uncompressed_size);
      sim::resolve_block(tokens.sequences, tokens.literals.data(),
                          tokens.literals.size(), out, s);
      ASSERT_EQ(out, expect) << sim::strategy_name(s) << " trial " << trial;
    }
    Bytes out(tokens.uncompressed_size);
    sim::resolve_block_multipass(tokens.sequences, tokens.literals.data(),
                                  tokens.literals.size(), out);
    ASSERT_EQ(out, expect) << "multipass trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyFuzz, ::testing::Range(1, 9));

class CodecFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CodecFuzz, BitCodecRoundTripsRandomTokens) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919u + 3);
  for (int trial = 0; trial < 10; ++trial) {
    lz77::TokenBlock tokens = random_tokens(rng, 1 + rng.next_below(100));
    // Bit codec domain: lengths <= 258 (satisfied), distances <= 32768.
    bool in_domain = true;
    for (auto& s : tokens.sequences) {
      if (s.match_dist > 32768) in_domain = false;
    }
    if (!in_domain) continue;
    core::BitCodecConfig cfg;
    cfg.tokens_per_subblock = 1 + static_cast<std::uint32_t>(rng.next_below(40));
    const Bytes payload = core::encode_block_bit(tokens, cfg);
    const lz77::TokenBlock back = core::decode_block_bit(payload, cfg);
    ASSERT_EQ(lz77::decode_reference(back), lz77::decode_reference(tokens))
        << "trial " << trial;
  }
}

TEST_P(CodecFuzz, ByteCodecRoundTripsRandomTokens) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729u + 5);
  for (int trial = 0; trial < 10; ++trial) {
    lz77::TokenBlock tokens = random_tokens(rng, 1 + rng.next_below(100));
    // Byte codec domain: lit <= 8191 (satisfied: max 500), len <= 65,
    // dist <= 8192.
    bool in_domain = true;
    for (auto& s : tokens.sequences) {
      if (s.match_dist > 8192 || s.match_len > 65) in_domain = false;
    }
    if (!in_domain) continue;
    const Bytes payload = core::encode_block_byte(tokens);
    const lz77::TokenBlock back = core::decode_block_byte(payload);
    ASSERT_EQ(lz77::decode_reference(back), lz77::decode_reference(tokens))
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Range(1, 5));

}  // namespace
}  // namespace gompresso
