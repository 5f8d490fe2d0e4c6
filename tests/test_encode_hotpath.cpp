// Encode fast-path tests: fused emit-table equivalence against the
// per-symbol encoder, compress() determinism across thread counts and
// scratch reuse, matcher generation-reset equivalence, and a real
// allocation-counting proof of the zero-steady-state-allocation claim.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/bit_codec.hpp"
#include "core/byte_codec.hpp"
#include "core/compressor.hpp"
#include "core/decompressor.hpp"
#include "core/encode_tables.hpp"
#include "datagen/datasets.hpp"
#include "huffman/code_builder.hpp"
#include "huffman/encoder.hpp"
#include "lz77/deflate_tables.hpp"
#include "lz77/parser.hpp"
#include "simt/warp.hpp"

namespace gompresso {
namespace {

// ---------------------------------------------------------------------
// Global allocation counter: every operator new in the process bumps it,
// so a scope that must be allocation-free can assert the count did not
// move. (Counting is cheap enough not to distort the tests.)
std::atomic<std::uint64_t> g_alloc_count{0};

}  // namespace
}  // namespace gompresso

void* operator new(std::size_t size) {
  ++gompresso::g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gompresso {
namespace {

using core::FusedEmitTables;

/// Builds a pair of canonical codes where every symbol of both alphabets
/// is present (so every length/distance can be emitted), with skewed
/// frequencies so code lengths differ.
struct CodePair {
  std::vector<std::uint8_t> litlen_lengths;
  std::vector<std::uint8_t> offset_lengths;
  std::vector<huffman::CodeEntry> litlen_codes;
  std::vector<huffman::CodeEntry> offset_codes;

  explicit CodePair(unsigned cwl) {
    std::vector<std::uint64_t> litlen_freqs(core::kLitLenAlphabet);
    for (std::size_t s = 0; s < litlen_freqs.size(); ++s) {
      litlen_freqs[s] = 1 + (s * 2654435761u) % 1000;
    }
    std::vector<std::uint64_t> offset_freqs(core::kOffsetAlphabet);
    for (std::size_t s = 0; s < offset_freqs.size(); ++s) {
      offset_freqs[s] = 1 + (s * 40503u) % 500;
    }
    litlen_lengths = huffman::build_code_lengths(litlen_freqs, cwl);
    offset_lengths = huffman::build_code_lengths(offset_freqs, cwl);
    litlen_codes = huffman::assign_canonical_codes(litlen_lengths);
    offset_codes = huffman::assign_canonical_codes(offset_lengths);
  }
};

/// Per-symbol reference emission of one match (the pre-fast-path chain):
/// length code, length extra bits, distance code, distance extra bits.
void emit_match_reference(const huffman::Encoder& litlen_enc,
                          const huffman::Encoder& offset_enc, std::uint32_t len,
                          std::uint32_t dist, BitWriter& w) {
  const auto lc = lz77::encode_length(len);
  litlen_enc.encode(core::kFirstLengthSymbol + lc.code, w);
  w.write(lc.extra_value, lc.extra_bits);
  const auto dc = lz77::encode_distance(dist);
  offset_enc.encode(dc.code, w);
  w.write(dc.extra_value, dc.extra_bits);
}

TEST(FusedEmitTables, MatchTokensBitIdenticalExhaustive) {
  for (const unsigned cwl : {9u, 10u, 15u}) {
    const CodePair codes(cwl);
    const huffman::Encoder litlen_enc(codes.litlen_codes);
    const huffman::Encoder offset_enc(codes.offset_codes);
    FusedEmitTables emit;
    emit.build(codes.litlen_codes, codes.offset_codes);

    // Every length 3..258, and for distances every bucket boundary +- 1
    // (the bucket search's edge cases) plus the domain extremes.
    std::vector<std::uint32_t> dists;
    for (std::uint32_t c = 0; c < lz77::kNumDistanceCodes; ++c) {
      const std::uint32_t base = lz77::distance_base(c);
      for (std::int64_t d : {std::int64_t{base} - 1, std::int64_t{base},
                             std::int64_t{base} + 1}) {
        if (d >= 1 && d <= lz77::kMaxDistance) {
          dists.push_back(static_cast<std::uint32_t>(d));
        }
      }
    }
    dists.push_back(lz77::kMaxDistance);

    for (std::uint32_t len = lz77::kMinMatch; len <= lz77::kMaxMatch; ++len) {
      for (const std::uint32_t dist : dists) {
        BitWriter ref, fused;
        emit_match_reference(litlen_enc, offset_enc, len, dist, ref);
        const FusedEmitTables::Token t = emit.match_token(len, dist);
        ASSERT_LE(t.nbits, 48u);
        fused.begin_run(t.nbits);
        fused.write_unchecked(t.bits, t.nbits);
        fused.end_run();
        ASSERT_EQ(ref.bit_count(), fused.bit_count())
            << "len=" << len << " dist=" << dist;
        ASSERT_EQ(ref.finish(), fused.finish()) << "len=" << len << " dist=" << dist;
      }
    }
  }
}

TEST(FusedEmitTables, LiteralAndEndEntriesMatchEncoder) {
  const CodePair codes(12);
  const huffman::Encoder litlen_enc(codes.litlen_codes);
  FusedEmitTables emit;
  emit.build(codes.litlen_codes, codes.offset_codes);
  for (std::uint32_t b = 0; b < 256; ++b) {
    BitWriter ref, fused;
    litlen_enc.encode(b, ref);
    fused.write(emit.lit[b].bits, emit.lit[b].nbits);
    EXPECT_EQ(ref.bit_count(), fused.bit_count());
    EXPECT_EQ(ref.finish(), fused.finish()) << "literal " << b;
  }
  BitWriter ref, fused;
  litlen_enc.encode(core::kEndSymbol, ref);
  fused.write(emit.end.bits, emit.end.nbits);
  EXPECT_EQ(ref.finish(), fused.finish());
}

TEST(DeflateTables, ClosedFormBucketsMatchRfcTables) {
  // distance_code's bit-width closed form against the RFC base table.
  for (std::uint32_t c = 0; c < lz77::kNumDistanceCodes; ++c) {
    const std::uint32_t lo = lz77::distance_base(c);
    const std::uint32_t hi =
        c + 1 < lz77::kNumDistanceCodes ? lz77::distance_base(c + 1) : 32769;
    EXPECT_EQ(lz77::distance_code(lo), c);
    EXPECT_EQ(lz77::distance_code(hi - 1), c);
  }
  for (std::uint32_t len = 3; len <= 258; ++len) {
    const auto bc = lz77::encode_length(len);
    EXPECT_EQ(lz77::length_code(len), bc.code);
    EXPECT_EQ(lz77::decode_length(bc.code, bc.extra_value), len);
  }
}

void expect_same_parse(const lz77::TokenBlock& fresh, const lz77::TokenBlock& reused) {
  ASSERT_EQ(fresh.literals, reused.literals);
  ASSERT_EQ(fresh.sequences.size(), reused.sequences.size());
  for (std::size_t i = 0; i < fresh.sequences.size(); ++i) {
    ASSERT_EQ(fresh.sequences[i].literal_len, reused.sequences[i].literal_len);
    ASSERT_EQ(fresh.sequences[i].match_len, reused.sequences[i].match_len);
    ASSERT_EQ(fresh.sequences[i].match_dist, reused.sequences[i].match_dist);
  }
}

TEST(MatcherReuse, GenerationResetMatchesFreshMatcher) {
  const Bytes input = datagen::wikipedia(384 * 1024);
  for (const bool de : {false, true}) {
    lz77::ParserOptions popt;
    popt.dependency_elimination = de;
    popt.group_size = simt::kWarpSize;
    // Both matcher kinds: every reused-across-blocks parse (generation
    // bias > 1, biased staleness arithmetic) must equal a fresh one.
    lz77::ChainMatcher reused_chain(popt.matcher, 16);
    lz77::HashMatcher reused_hash(popt.matcher);
    lz77::TokenBlock chain_out, hash_out;
    for (std::size_t at = 0; at < input.size(); at += 96 * 1024) {
      const std::size_t len = std::min<std::size_t>(96 * 1024, input.size() - at);
      const ByteSpan block(input.data() + at, len);
      lz77::parse_block_into(block, popt, reused_chain, chain_out);
      expect_same_parse(lz77::parse_chained(block, popt, 16), chain_out);
      lz77::parse_block_into(block, popt, reused_hash, hash_out);
      expect_same_parse(lz77::parse(block, popt), hash_out);
    }
  }
}

TEST(CompressDeterminism, ByteIdenticalAcrossThreadCounts) {
  // 1T vs NT vs the shared default pool, over both datagen corpora and a
  // single-block input (which exercises the sub-block fan-out path), for
  // every codec. Payload bytes must be identical everywhere.
  const std::vector<std::pair<const char*, Bytes>> corpora = {
      {"wikipedia", datagen::wikipedia(768 * 1024)},
      {"matrix", datagen::matrix(512 * 1024)},
      {"single-block", datagen::wikipedia(100 * 1024)},
  };
  for (const auto& [name, input] : corpora) {
    for (const Codec codec : {Codec::kByte, Codec::kBit}) {
      CompressOptions opt;
      opt.codec = codec;
      opt.num_threads = 1;
      const Bytes one = compress(input, opt);
      opt.num_threads = 4;
      const Bytes four = compress(input, opt);
      opt.num_threads = 0;
      const Bytes pool = compress(input, opt);
      ASSERT_EQ(one, four) << name << " codec " << static_cast<int>(codec);
      ASSERT_EQ(one, pool) << name << " codec " << static_cast<int>(codec);
      ASSERT_EQ(decompress(one).data, input);
    }
  }
}

TEST(CompressDeterminism, RepeatedEncodesWithReusedScratchAreIdentical) {
  const Bytes input = datagen::wikipedia(512 * 1024);
  lz77::ParserOptions popt;
  popt.dependency_elimination = true;
  popt.group_size = simt::kWarpSize;
  popt.max_literal_run = core::kByteCodecMaxLiteralRun;
  std::vector<lz77::TokenBlock> blocks;
  for (std::size_t at = 0; at < input.size(); at += 256 * 1024) {
    const std::size_t len = std::min<std::size_t>(256 * 1024, input.size() - at);
    blocks.push_back(lz77::parse_chained(ByteSpan(input.data() + at, len), popt, 16));
  }
  core::EncodeScratch scratch;
  scratch.reserve(256 * 1024, 16);
  core::BitCodecConfig bcfg;
  for (const auto& blk : blocks) {
    const Bytes bit1 = core::encode_block_bit(blk, bcfg, scratch);
    const Bytes bit2 = core::encode_block_bit(blk, bcfg, scratch);
    EXPECT_EQ(bit1, bit2);
    EXPECT_EQ(bit1, core::encode_block_bit(blk, bcfg));  // fresh-scratch wrapper
    const Bytes byte1 = core::encode_block_byte(blk, scratch);
    EXPECT_EQ(byte1, core::encode_block_byte(blk));
  }
}

TEST(EncodeScratch, SteadyStateIsAllocationFree) {
  // The hard version of the counter gate: with a warm scratch, a full
  // parse + encode of a block performs literally zero heap allocations,
  // for every codec (the operator-new hook at the top of this file
  // counts every allocation in the process).
  const Bytes input = datagen::wikipedia(512 * 1024);
  lz77::ParserOptions popt;
  popt.dependency_elimination = true;
  popt.group_size = simt::kWarpSize;
  popt.max_literal_run = core::kByteCodecMaxLiteralRun;

  core::EncodeScratch scratch;
  scratch.reserve(256 * 1024, 16);
  core::BitCodecConfig bcfg;

  const auto one_pass = [&] {
    for (std::size_t at = 0; at < input.size(); at += 256 * 1024) {
      const std::size_t len = std::min<std::size_t>(256 * 1024, input.size() - at);
      const ByteSpan block(input.data() + at, len);
      auto& matcher = scratch.chain_matcher(popt.matcher, 16);
      lz77::parse_block_into(block, popt, matcher, scratch.block, nullptr,
                             &scratch.de_constraint);
      core::encode_block_bit(scratch.block, bcfg, scratch);
      core::encode_block_byte(scratch.block, scratch);
    }
  };
  one_pass();  // warm-up (matcher construction, any first-touch growth)

  const std::uint64_t before = g_alloc_count.load();
  one_pass();
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(before, after) << "steady-state encode allocated "
                           << (after - before) << " times";

  // And the counters agree.
  EXPECT_EQ(scratch.stats.blocks, scratch.stats.buffer_reuses + 0)
      << "scratch counters disagree with the allocation hook";
  EXPECT_EQ(scratch.stats.matcher_inits, 1u);
}

TEST(EncodeScratch, CompressStatsReportScratchReuse) {
  const Bytes input = datagen::wikipedia(768 * 1024);
  for (const Codec codec : {Codec::kByte, Codec::kBit}) {
    CompressOptions opt;
    opt.codec = codec;
    opt.num_threads = 1;
    CompressStats stats;
    const Bytes file = compress(input, opt, &stats);
    EXPECT_EQ(decompress(file).data, input);
    EXPECT_GT(stats.scratch.blocks, 0u);
    EXPECT_EQ(stats.scratch.blocks, stats.scratch.buffer_reuses)
        << "codec " << static_cast<int>(codec);
    EXPECT_EQ(stats.scratch.matcher_inits, 1u);
  }
}

TEST(EncodeScratch, SingleBlockFanOutCountsLanes) {
  // A single-block input with a multi-worker pool takes the sub-block
  // fan-out path; output must equal the serial encoding.
  const Bytes input = datagen::wikipedia(200 * 1024);
  for (const Codec codec : {Codec::kByte, Codec::kBit}) {
    CompressOptions opt;
    opt.codec = codec;
    opt.block_size = 256 * 1024;  // one block
    opt.num_threads = 1;
    const Bytes serial = compress(input, opt);
    opt.num_threads = 4;
    CompressStats stats;
    const Bytes fanned = compress(input, opt, &stats);
    EXPECT_EQ(serial, fanned) << "codec " << static_cast<int>(codec);
    EXPECT_EQ(stats.scratch.lane_fanouts, 1u) << "codec " << static_cast<int>(codec);
  }
}

}  // namespace
}  // namespace gompresso
