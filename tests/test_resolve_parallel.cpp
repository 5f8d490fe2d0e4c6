// Tests for the sharded parallel phase-2 resolver (completed-watermark
// handoff): byte-equality with the sequential resolve_span kernel across
// corpora, DE and non-DE parses, and thread counts; crafted cross-shard
// and shard-starvation
// streams; abort behaviour on malformed input; arena reuse; and the
// resolve_span oracle kernel it is checked against. The whole suite runs
// under ThreadSanitizer in CI — the handoff's claim is exactly that the
// cross-shard reads are properly ordered.
#include <gtest/gtest.h>

#include "core/decompressor.hpp"
#include "core/gompresso.hpp"
#include "core/resolve_parallel.hpp"
#include "datagen/datasets.hpp"
#include "lz77/parser.hpp"
#include "lz77/ref_decoder.hpp"
#include "util/thread_pool.hpp"

namespace gompresso::core {
namespace {

Bytes corpus(int which, std::size_t size) {
  switch (which) {
    case 0: return datagen::wikipedia(size);
    case 1: return datagen::matrix(size);
    case 2: return datagen::random_bytes(size / 2);
    case 3: return Bytes(size, 'w');
    default: {
      datagen::NestingConfig nc;
      nc.families = 2;
      return datagen::make_nesting(size, nc);
    }
  }
}

/// Small shards so even test-sized token blocks split many ways.
ResolveShardConfig tiny_shards() {
  ResolveShardConfig config;
  config.min_sequences_per_shard = 64;
  return config;
}

Bytes resolve_sharded_or_die(const lz77::TokenBlock& tokens, ThreadPool& pool,
                             const ResolveShardConfig& config,
                             std::uint64_t* deferrals = nullptr,
                             ResolvePlan* plan_out = nullptr) {
  Bytes out(tokens.uncompressed_size);
  ResolvePlan local;
  ResolvePlan& plan = plan_out ? *plan_out : local;
  const bool sharded =
      resolve_block_sharded(tokens.sequences, tokens.literals.data(),
                            tokens.literals.size(), out, plan, pool, deferrals, config);
  EXPECT_TRUE(sharded) << "block unexpectedly too small to shard";
  return out;
}


class ShardedEquivalence : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(ShardedEquivalence, MatchesSerialResolver) {
  const auto [de, which] = GetParam();
  const Bytes input = corpus(which, 150000);
  lz77::ParserOptions popt;
  popt.dependency_elimination = de;
  const lz77::TokenBlock tokens = lz77::parse(input, popt, nullptr);

  Bytes serial(tokens.uncompressed_size);
  lz77::resolve_span(tokens.sequences, tokens.literals.data(), tokens.literals.size(),
                     serial, /*base=*/0);
  ASSERT_EQ(serial, input);

  ThreadPool pool(4);
  Bytes sharded(tokens.uncompressed_size);
  ResolvePlan plan;
  std::uint64_t deferrals = 0;
  if (!resolve_block_sharded(tokens.sequences, tokens.literals.data(),
                             tokens.literals.size(), sharded, plan, pool, &deferrals,
                             tiny_shards())) {
    // The incompressible corpus parses to a handful of long literal
    // runs; declining to shard such a block is the contract.
    EXPECT_LE(tokens.sequences.size(), 64u * 2);
    return;
  }
  EXPECT_EQ(sharded, serial);
}

INSTANTIATE_TEST_SUITE_P(All, ShardedEquivalence,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Values(0, 1, 2, 3, 4)));

TEST(ResolveParallel, EndToEndSingleBlockOneVsManyThreads) {
  // The acceptance shape: a single-block file decoded on a multi-thread
  // pool must take the sharded phase-2 path and produce bytes identical
  // to the 1-thread decode, for every codec and both stream kinds.
  const Bytes input = datagen::wikipedia(400000);
  for (const Codec codec : {Codec::kBit, Codec::kByte, Codec::kTans}) {
    for (const bool de : {true, false}) {
      CompressOptions opt;
      opt.codec = codec;
      opt.dependency_elimination = de;
      opt.block_size = 1024 * 1024;  // > input: exactly one block
      const Bytes file = compress(input, opt);

      DecompressOptions one;
      one.num_threads = 1;
      const DecompressResult serial = decompress(file, one);
      ASSERT_EQ(serial.data, input);
      EXPECT_EQ(serial.scratch.resolve_fanouts, 0u);

      DecompressOptions many;
      many.num_threads = 4;
      const DecompressResult parallel = decompress(file, many);
      ASSERT_EQ(parallel.data, serial.data)
          << "codec " << static_cast<int>(codec) << " de=" << de;
      EXPECT_EQ(parallel.scratch.resolve_fanouts, 1u)
          << "codec " << static_cast<int>(codec) << " de=" << de
          << ": single block + 4 threads must shard phase 2";
      EXPECT_EQ(parallel.scratch.lane_fanouts, 1u);
      // The arena is pre-reserved from the header bound: the sharded
      // resolve must not have cost the block its buffer-reuse claim.
      EXPECT_EQ(parallel.scratch.blocks, parallel.scratch.buffer_reuses);
    }
  }
}

TEST(ResolveParallel, ShardLocalStreamResolvesWithoutDeferrals) {
  // A stream whose every match copies from its own literal string never
  // reaches below a shard base, so phase A must resolve all of it
  // concurrently — zero deferrals, no watermark parking. This is the
  // fully-concurrent end of the concurrent-vs-pipelined spectrum (the
  // crafted cross-shard test below is the other end).
  lz77::TokenBlock tokens;
  for (int k = 0; k < 8192; ++k) {
    for (int i = 0; i < 8; ++i) {
      tokens.literals.push_back(static_cast<std::uint8_t>(k * 8 + i));
    }
    tokens.sequences.push_back({8, 4, 8});  // copies its own literals
  }
  tokens.sequences.push_back({0, 0, 0});
  tokens.uncompressed_size = static_cast<std::uint32_t>(8192 * 12);
  const Bytes expect = lz77::decode_reference(tokens);

  ThreadPool pool(4);
  std::uint64_t deferrals = 0;
  EXPECT_EQ(resolve_sharded_or_die(tokens, pool, tiny_shards(), &deferrals), expect);
  EXPECT_EQ(deferrals, 0u);
}

TEST(ResolveParallel, ChaseResolvesDirtyReadsInsideTheShard) {
  // References that read a deferred reference's output but whose
  // transitive origin stays inside the shard must be chased to that
  // origin and copied in phase A rather than joining the cascade: only
  // the refs whose chains truly cross a shard base may defer.
  lz77::TokenBlock tokens;
  // Each sequence: 4 literals then a match of 4 at distance 6 — the
  // source straddles the previous sequence's match output (dirty when
  // that ref deferred) and own literals, with the chain grounding in
  // literal bytes after a couple of hops.
  for (int k = 0; k < 8192; ++k) {
    for (int i = 0; i < 4; ++i) {
      tokens.literals.push_back(static_cast<std::uint8_t>(k ^ (i * 41)));
    }
    lz77::Sequence s;
    s.literal_len = 4;
    s.match_len = 4;
    const std::uint64_t pos = static_cast<std::uint64_t>(k) * 8 + 4;  // write_pos
    s.match_dist = pos >= 6 ? 6 : static_cast<std::uint32_t>(pos);
    tokens.sequences.push_back(s);
  }
  tokens.sequences.push_back({0, 0, 0});
  tokens.uncompressed_size = static_cast<std::uint32_t>(8192 * 8);
  const Bytes expect = lz77::decode_reference(tokens);

  ThreadPool pool(4);
  std::uint64_t deferrals = 0;
  EXPECT_EQ(resolve_sharded_or_die(tokens, pool, tiny_shards(), &deferrals), expect);
  // Only the boundary-straddling ref of each shard may defer; the
  // dirty reads right behind it must chase-resolve instead of joining
  // a cascade (one cascade would already defer a whole shard, hundreds
  // of refs).
  EXPECT_GT(deferrals, 0u);
  EXPECT_LT(deferrals, 8192u / 16);
}

TEST(ResolveParallel, CraftedRefsSpanEveryShardBoundary) {
  // A non-DE stream built so that every back-reference (after warm-up)
  // reaches below its shard's base: with 64-sequence shards each
  // emitting 5 bytes per sequence, a constant distance of 321 bytes
  // always crosses at least one 320-byte shard boundary. Every shard's
  // phase A defers everything and the watermark handoff must still
  // reconstruct the exact byte stream.
  lz77::TokenBlock tokens;
  for (int k = 0; k < 4096; ++k) {
    lz77::Sequence s;
    s.literal_len = 1;
    s.match_len = 4;
    const std::uint64_t pos = static_cast<std::uint64_t>(k) * 5 + 1;  // write_pos
    s.match_dist = pos > 321 ? 321 : static_cast<std::uint32_t>(pos);
    tokens.sequences.push_back(s);
    tokens.literals.push_back(static_cast<std::uint8_t>(k * 37 + 11));
  }
  tokens.sequences.push_back({0, 0, 0});
  tokens.uncompressed_size = static_cast<std::uint32_t>(4096 * 5);
  const Bytes expect = lz77::decode_reference(tokens);

  ThreadPool pool(4);
  std::uint64_t deferrals = 0;
  EXPECT_EQ(resolve_sharded_or_die(tokens, pool, tiny_shards(), &deferrals), expect);
  EXPECT_GT(deferrals, 3000u) << "nearly every ref must cross its shard base";
}

TEST(ResolveParallel, ShardStarvationGiantMatch) {
  // One giant RLE match covers most of the window; every later shard's
  // references read deep inside it, so they all park on the watermark
  // until the first shard finishes — the worst-case handoff pattern.
  lz77::TokenBlock tokens;
  tokens.literals.push_back('G');
  tokens.sequences.push_back({1, 200000, 1});
  for (int k = 0; k < 4096; ++k) {
    lz77::Sequence s;
    s.literal_len = 1;
    s.match_len = 8;
    s.match_dist = 150000;  // deep inside the giant run
    tokens.sequences.push_back(s);
    tokens.literals.push_back(static_cast<std::uint8_t>('a' + k % 26));
  }
  tokens.sequences.push_back({0, 0, 0});
  tokens.uncompressed_size = static_cast<std::uint32_t>(1 + 200000 + 4096 * 9);
  const Bytes expect = lz77::decode_reference(tokens);

  ThreadPool pool(4);
  std::uint64_t deferrals = 0;
  EXPECT_EQ(resolve_sharded_or_die(tokens, pool, tiny_shards(), &deferrals), expect);
  EXPECT_GT(deferrals, 3000u);
}

TEST(ResolveParallel, MalformedMiddleShardAbortsWithoutHanging) {
  // A bad distance deep in a middle shard, in a stream whose other
  // references all cross their shard base: later shards are parked on
  // the watermark when the bad shard throws, so the abort must wake
  // them and the caller must see the error instead of a deadlock.
  lz77::TokenBlock tokens;
  for (int k = 0; k < 2048; ++k) {
    lz77::Sequence s;
    s.literal_len = 1;
    s.match_len = 4;
    const std::uint64_t pos = static_cast<std::uint64_t>(k) * 5 + 1;  // write_pos
    s.match_dist = pos > 801 ? 801 : static_cast<std::uint32_t>(pos);
    if (k == 1500) s.match_dist = 1000000;  // far past the start
    tokens.sequences.push_back(s);
    tokens.literals.push_back('x');
  }
  tokens.sequences.push_back({0, 0, 0});
  tokens.uncompressed_size = static_cast<std::uint32_t>(2048 * 5);

  ThreadPool pool(4);
  Bytes out(tokens.uncompressed_size);
  ResolvePlan plan;
  EXPECT_THROW(resolve_block_sharded(tokens.sequences, tokens.literals.data(),
                                     tokens.literals.size(), out, plan, pool, nullptr,
                                     tiny_shards()),
               Error);
}

TEST(ResolveParallel, TinyBlocksFallBackToSerial) {
  const Bytes input = datagen::wikipedia(8000);
  lz77::ParserOptions popt;
  const lz77::TokenBlock tokens = lz77::parse(input, popt, nullptr);
  ASSERT_LT(tokens.sequences.size(), 2048u);  // below one default shard

  ThreadPool pool(4);
  Bytes out(tokens.uncompressed_size);
  ResolvePlan plan;
  EXPECT_FALSE(resolve_block_sharded(tokens.sequences, tokens.literals.data(),
                                     tokens.literals.size(), out, plan, pool));
  // And the end-to-end path must agree: no resolve fan-out, right bytes.
  CompressOptions opt;
  const Bytes file = compress(input, opt);
  DecompressOptions dopt;
  dopt.num_threads = 4;
  const DecompressResult r = decompress(file, dopt);
  EXPECT_EQ(r.data, input);
  EXPECT_EQ(r.scratch.resolve_fanouts, 0u);
}

TEST(ResolveParallel, WarmPlanBuffersDoNotGrow) {
  // Steady-state claim at the arena level: resolving the same block
  // shape twice through one plan must not grow any plan-owned buffer
  // (shard table, pending worklists, dirty bitmaps) — the warm
  // pass runs out of the capacities the first pass established.
  const Bytes input = datagen::wikipedia(200000);
  lz77::ParserOptions popt;
  popt.dependency_elimination = true;
  const lz77::TokenBlock tokens = lz77::parse(input, popt, nullptr);

  ThreadPool pool(4);
  ResolvePlan plan;
  const ResolveShardConfig config = tiny_shards();
  const Bytes first = resolve_sharded_or_die(tokens, pool, config, nullptr, &plan);
  ASSERT_EQ(first, input);

  std::vector<std::size_t> pending_caps;
  std::vector<std::size_t> dirty_caps;
  for (const auto& p : plan.shard_pending) pending_caps.push_back(p.capacity());
  for (const auto& d : plan.shard_dirty) dirty_caps.push_back(d.capacity());
  const std::size_t shard_cap = plan.shards.capacity();

  const Bytes second = resolve_sharded_or_die(tokens, pool, config, nullptr, &plan);
  ASSERT_EQ(second, input);
  EXPECT_EQ(plan.shards.capacity(), shard_cap);
  for (std::size_t s = 0; s < plan.shard_pending.size(); ++s) {
    EXPECT_EQ(plan.shard_pending[s].capacity(), pending_caps[s]) << "shard " << s;
  }
  for (std::size_t s = 0; s < plan.shard_dirty.size(); ++s) {
    EXPECT_EQ(plan.shard_dirty[s].capacity(), dirty_caps[s]) << "shard " << s;
  }
}

// ----------------------------------------------------------------- oracle

TEST(ResolveSpan, ResolvesAtAbsoluteBaseOverDonePrefix) {
  // Resolve a block serially, then re-resolve its tail span over a
  // window whose prefix is the already-resolved output — the shard
  // contract in miniature.
  const Bytes input = datagen::wikipedia(100000);
  lz77::ParserOptions popt;
  const lz77::TokenBlock tokens = lz77::parse(input, popt, nullptr);
  const Bytes whole = lz77::decode_reference(tokens);
  ASSERT_EQ(whole, input);

  // Split the sequence list at a warp-group boundary.
  const std::size_t split = (tokens.sequences.size() / 2) / 32 * 32;
  std::uint64_t head_lits = 0;
  std::uint64_t head_out = 0;
  for (std::size_t i = 0; i < split; ++i) {
    head_lits += tokens.sequences[i].literal_len;
    head_out += tokens.sequences[i].literal_len + tokens.sequences[i].match_len;
  }
  Bytes window(whole.begin(), whole.end());
  // Scrub the tail, then re-resolve only the tail span at its base.
  std::fill(window.begin() + static_cast<std::ptrdiff_t>(head_out), window.end(), 0);
  const std::uint64_t written = lz77::resolve_span(
      std::span<const lz77::Sequence>(tokens.sequences).subspan(split),
      tokens.literals.data() + head_lits, tokens.literals.size() - head_lits,
      window, head_out);
  EXPECT_EQ(written, whole.size() - head_out);
  EXPECT_EQ(window, whole);
}

TEST(ResolveSpan, RejectsMalformedSpans) {
  lz77::Sequence bad_dist{1, 4, 9};
  lz77::Sequence term{0, 0, 0};
  const std::uint8_t lit = 'a';
  Bytes window(5);
  {
    const lz77::Sequence seqs[] = {bad_dist, term};
    EXPECT_THROW(lz77::resolve_span(seqs, &lit, 1, window, 0), Error);
  }
  {
    // Output overrun: window too small for the span.
    const lz77::Sequence seqs[] = {{1, 8, 1}, term};
    EXPECT_THROW(lz77::resolve_span(seqs, &lit, 1, window, 0), Error);
  }
  {
    // Literal buffer too small.
    const lz77::Sequence seqs[] = {{3, 0, 0}};
    EXPECT_THROW(lz77::resolve_span(seqs, &lit, 1, window, 0), Error);
  }
  {
    // Base past the window.
    const lz77::Sequence seqs[] = {term};
    EXPECT_THROW(lz77::resolve_span(seqs, &lit, 0, window, 9), Error);
  }
}

}  // namespace
}  // namespace gompresso::core
