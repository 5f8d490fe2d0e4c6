// Tests for the Gompresso/Tans codec (the paper's §VI future-work
// "alternative coding schemes", implemented over shared tANS models).
#include <gtest/gtest.h>

#include <utility>

#include "ans/tans.hpp"
#include "core/byte_codec.hpp"
#include "core/gompresso.hpp"
#include "core/tans_codec.hpp"
#include "datagen/datasets.hpp"
#include "lz77/parser.hpp"
#include "tests/fuzz_budget.hpp"
#include "lz77/ref_decoder.hpp"
#include "sim/decompress.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/varint.hpp"

namespace gompresso::core {
namespace {

lz77::TokenBlock parse_for_tans(const Bytes& input) {
  lz77::ParserOptions opt;
  opt.max_literal_run = kByteCodecMaxLiteralRun;
  return lz77::parse(input, opt, nullptr);
}

TEST(TansModel, SharedModelStreamsRoundTrip) {
  const Bytes data = datagen::wikipedia(50000);
  std::vector<std::uint64_t> freqs(256, 0);
  for (const auto b : data) ++freqs[b];
  const ans::Model model = ans::Model::from_frequencies(freqs, 11);

  // Many independent streams against one model (the sub-block pattern).
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{100}, std::size_t{7777}}) {
    for (std::size_t at = 0; at + chunk <= data.size(); at += 9973) {
      const ByteSpan piece(data.data() + at, chunk);
      const Bytes stream = model.encode_stream(piece);
      const Bytes back = model.decode_stream(stream, chunk);
      ASSERT_TRUE(std::equal(back.begin(), back.end(), piece.begin()));
    }
  }
}

TEST(TansModel, SerializeRoundTrip) {
  std::vector<std::uint64_t> freqs(256, 0);
  freqs['x'] = 1000;
  freqs['y'] = 300;
  freqs['z'] = 1;
  const ans::Model model = ans::Model::from_frequencies(freqs, 10);
  Bytes buf;
  model.serialize(buf);
  std::size_t pos = 0;
  const ans::Model back = ans::Model::deserialize(buf, pos);
  EXPECT_EQ(pos, buf.size());
  EXPECT_EQ(back.table_log(), 10u);
  const Bytes msg = {'x', 'y', 'x', 'z', 'x', 'y'};
  EXPECT_EQ(back.decode_stream(model.encode_stream(msg), msg.size()), msg);
}

TEST(TansModel, RejectsForeignSymbols) {
  std::vector<std::uint64_t> freqs(256, 0);
  freqs['a'] = 10;
  freqs['b'] = 10;
  const ans::Model model = ans::Model::from_frequencies(freqs, 9);
  const Bytes msg = {'a', 'c'};
  EXPECT_THROW(model.encode_stream(msg), Error);
}

TEST(TansCodecBlock, RoundTripDatasets) {
  TansCodecConfig cfg;
  for (const int which : {0, 1, 2}) {
    const Bytes input = which == 0   ? datagen::wikipedia(80000)
                        : which == 1 ? datagen::matrix(80000)
                                     : Bytes(80000, 'q');
    const lz77::TokenBlock tokens = parse_for_tans(input);
    const Bytes payload = encode_block_tans(tokens, cfg);
    const lz77::TokenBlock back = decode_block_tans(payload, cfg);
    EXPECT_EQ(lz77::decode_reference(back), input) << "dataset " << which;
  }
}

TEST(TansCodecBlock, CompressesTextBetterThanByteCodec) {
  const lz77::TokenBlock tokens = parse_for_tans(datagen::wikipedia(200000));
  TansCodecConfig cfg;
  EXPECT_LT(encode_block_tans(tokens, cfg).size(), encode_block_byte(tokens).size());
}

TEST(TansCodecBlock, SubblockSizesSweep) {
  const lz77::TokenBlock tokens = parse_for_tans(datagen::matrix(60000));
  for (const std::uint32_t tps : {1u, 8u, 16u, 256u}) {
    TansCodecConfig cfg;
    cfg.tokens_per_subblock = tps;
    const Bytes payload = encode_block_tans(tokens, cfg);
    const lz77::TokenBlock back = decode_block_tans(payload, cfg);
    EXPECT_EQ(lz77::decode_reference(back), lz77::decode_reference(tokens))
        << "tps=" << tps;
  }
}

TEST(TansCodecBlock, CorruptionNeverCrashesAndIsMostlyDetected) {
  // A flipped byte must never crash the decoder. Most flips throw or
  // change the output (the container CRC catches the latter); flips in
  // the byte-alignment padding of a stream can be semantically inert,
  // which is harmless — the output is still correct.
  TansCodecConfig cfg;
  const Bytes input = datagen::wikipedia(40000);
  const lz77::TokenBlock tokens = parse_for_tans(input);
  const Bytes payload = encode_block_tans(tokens, cfg);
  int detected = 0, inert = 0, trials = 0;
  for (std::size_t at = 0; at < payload.size(); at += payload.size() / 113 + 1) {
    Bytes bad = payload;
    bad[at] ^= 0x3C;
    ++trials;
    try {
      const lz77::TokenBlock back = decode_block_tans(bad, cfg);
      if (lz77::decode_reference(back) != input) {
        ++detected;  // CRC would catch this downstream
      } else {
        ++inert;  // padding-bit flip: output unchanged
      }
    } catch (const Error&) {
      ++detected;
    }
  }
  EXPECT_EQ(detected + inert, trials);
  EXPECT_GT(detected, trials * 8 / 10) << "too many inert flips";
}

bool token_blocks_equal(const lz77::TokenBlock& a, const lz77::TokenBlock& b) {
  if (a.literals != b.literals || a.uncompressed_size != b.uncompressed_size ||
      a.sequences.size() != b.sequences.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.sequences.size(); ++i) {
    if (a.sequences[i].literal_len != b.sequences[i].literal_len ||
        a.sequences[i].match_len != b.sequences[i].match_len ||
        a.sequences[i].match_dist != b.sequences[i].match_dist) {
      return false;
    }
  }
  return true;
}

TEST(TansCodecBlock, ScratchReusesBuffersAndModels) {
  TansCodecConfig cfg;
  const lz77::TokenBlock tokens = parse_for_tans(datagen::wikipedia(60000));
  const Bytes payload = encode_block_tans(tokens, cfg);
  DecodeScratch scratch;
  EXPECT_TRUE(token_blocks_equal(tokens, decode_block_tans(payload, cfg, scratch)));
  EXPECT_EQ(scratch.stats.blocks, 1u);
  EXPECT_EQ(scratch.stats.table_builds, 2u);  // record + literal model
  EXPECT_EQ(scratch.stats.buffer_reuses, 0u);  // cold buffers grew
  // Decoding again must grow nothing: warm buffers, models rebuilt in
  // their existing storage.
  EXPECT_TRUE(token_blocks_equal(tokens, decode_block_tans(payload, cfg, scratch)));
  EXPECT_EQ(scratch.stats.blocks, 2u);
  EXPECT_EQ(scratch.stats.buffer_reuses, 1u);
  // A pre-reserved arena is warm from block one (the decompressor path).
  DecodeScratch reserved;
  reserved.reserve(1 << 20, cfg.tokens_per_subblock, /*tans=*/true);
  EXPECT_TRUE(token_blocks_equal(tokens, decode_block_tans(payload, cfg, reserved)));
  EXPECT_EQ(reserved.stats.blocks, 1u);
  EXPECT_EQ(reserved.stats.buffer_reuses, 1u);
}

TEST(TansCodecBlock, LanePoolFanOutMatchesSerialDecode) {
  TansCodecConfig cfg;
  cfg.tokens_per_subblock = 4;  // lots of lanes
  const lz77::TokenBlock tokens = parse_for_tans(datagen::wikipedia(120000));
  const Bytes payload = encode_block_tans(tokens, cfg);
  DecodeScratch serial_scratch;
  const lz77::TokenBlock serial = decode_block_tans(payload, cfg, serial_scratch);
  ThreadPool pool(4);
  DecodeScratch pooled_scratch;
  const lz77::TokenBlock& pooled = decode_block_tans(payload, cfg, pooled_scratch, &pool);
  EXPECT_TRUE(token_blocks_equal(serial, pooled));
  EXPECT_TRUE(token_blocks_equal(tokens, pooled));
  EXPECT_EQ(pooled_scratch.stats.lane_fanouts, 1u);
  EXPECT_EQ(serial_scratch.stats.lane_fanouts, 0u);
}

// ---------------------------------------------------------------------
// Adversarial payloads: the parse path must reject crafted headers with
// a clean Error before any of them can turn into out-of-bounds reads or
// allocation bombs (rapidgzip's lesson: the metadata parse is the attack
// surface of a parallel decoder).

namespace adversarial {

/// A minimal hand-built single-sub-block payload the crafters below
/// mutate: one sequence {1 literal 'a', no match}.
struct CraftParts {
  Bytes record_stream;
  Bytes literal_stream;
  Bytes record_model;   // serialized
  Bytes literal_model;  // serialized
};

CraftParts craft_parts() {
  CraftParts parts;
  lz77::Sequence seq;
  seq.literal_len = 1;
  Bytes raw_records;
  put_u32le(raw_records, pack_record(seq));
  std::vector<std::uint64_t> rec_freqs(256, 0);
  for (const auto b : raw_records) ++rec_freqs[b];
  // from_frequencies needs >= 2 distinct symbols only for coding gain,
  // but a one-symbol model still round-trips; pad to be safe.
  rec_freqs[0xFF] += 1;
  const ans::Model rec_model = ans::Model::from_frequencies(rec_freqs, 9);
  std::vector<std::uint64_t> lit_freqs(256, 0);
  lit_freqs['a'] = 1;
  lit_freqs['b'] = 1;
  const ans::Model lit_model = ans::Model::from_frequencies(lit_freqs, 9);
  parts.record_stream = rec_model.encode_stream(raw_records);
  parts.literal_stream = lit_model.encode_stream(Bytes{'a'});
  rec_model.serialize(parts.record_model);
  lit_model.serialize(parts.literal_model);
  return parts;
}

Bytes assemble(const CraftParts& parts, std::uint64_t table_n_seq,
               std::uint64_t table_n_lit, std::uint64_t record_bytes,
               std::uint64_t literal_bytes) {
  Bytes p;
  put_varint(p, 1);  // n_seq
  put_varint(p, 1);  // n_literals
  put_varint(p, 1);  // n_subblocks
  p.insert(p.end(), parts.record_model.begin(), parts.record_model.end());
  p.insert(p.end(), parts.literal_model.begin(), parts.literal_model.end());
  put_varint(p, table_n_seq);
  put_varint(p, table_n_lit);
  put_varint(p, record_bytes);
  put_varint(p, literal_bytes);
  p.insert(p.end(), parts.record_stream.begin(), parts.record_stream.end());
  p.insert(p.end(), parts.literal_stream.begin(), parts.literal_stream.end());
  return p;
}

}  // namespace adversarial

TEST(TansCodecAdversarial, CraftBaselineDecodes) {
  // Sanity: the hand-assembled payload with honest values is valid, so
  // the rejection tests below fail for the crafted field, not the craft.
  const auto parts = adversarial::craft_parts();
  const Bytes p = adversarial::assemble(parts, 1, 1, parts.record_stream.size(),
                                        parts.literal_stream.size());
  TansCodecConfig cfg;
  const lz77::TokenBlock back = decode_block_tans(p, cfg);
  EXPECT_EQ(back.literals, Bytes{'a'});
  EXPECT_EQ(back.uncompressed_size, 1u);
}

TEST(TansCodecAdversarial, WrappingStreamSizesRejected) {
  // Regression (pre-fix: `pos + record_bytes + literal_bytes <=
  // payload.size()` wraps around 2^64, and the subsequent subspan reads
  // out of bounds). Each size must be validated against the remaining
  // payload on its own.
  const auto parts = adversarial::craft_parts();
  TansCodecConfig cfg;
  using SizePair = std::pair<std::uint64_t, std::uint64_t>;
  for (const auto& [rec, lit] : {SizePair{0xFFFFFFFFFFFFFF00ull, 0x200},
                                 SizePair{0x200, 0xFFFFFFFFFFFFFF00ull},
                                 SizePair{0xFFFFFFFFFFFFFFFFull, 1}}) {
    const Bytes p = adversarial::assemble(parts, 1, 1, rec, lit);
    EXPECT_THROW(decode_block_tans(p, cfg), Error);
  }
}

TEST(TansCodecAdversarial, TruncatingCastCountsRejected) {
  // Regression (pre-fix: sub-block counts were silently narrowed with
  // static_cast<uint32_t>, so 2^32 + 1 aliased 1 and the u64 running
  // totals still agreed — the payload decoded as if honest).
  const auto parts = adversarial::craft_parts();
  TansCodecConfig cfg;
  const Bytes seq_bomb =
      adversarial::assemble(parts, (1ull << 32) + 1, 1, parts.record_stream.size(),
                            parts.literal_stream.size());
  EXPECT_THROW(decode_block_tans(seq_bomb, cfg), Error);
  const Bytes lit_bomb =
      adversarial::assemble(parts, 1, (1ull << 32) + 1, parts.record_stream.size(),
                            parts.literal_stream.size());
  EXPECT_THROW(decode_block_tans(lit_bomb, cfg), Error);
}

TEST(TansCodecAdversarial, SubblockCountBombRejected) {
  // Regression (pre-fix: a ~20-byte payload claiming 2^32 - 1 sequences
  // split into 4 * 10^9 sub-blocks forced a ~137 GB table resize before
  // any stream was validated). The count is bounded by the remaining
  // payload — every table entry needs at least 4 bytes — and must fail
  // with a clean Error, not bad_alloc.
  const auto parts = adversarial::craft_parts();
  Bytes p;
  put_varint(p, 0xFFFFFFFFull);  // n_seq (within the 32-bit bound)
  put_varint(p, 0);              // n_literals
  put_varint(p, 0xFFFFFFF0ull);  // n_subblocks
  p.insert(p.end(), parts.record_model.begin(), parts.record_model.end());
  TansCodecConfig cfg;
  EXPECT_THROW(decode_block_tans(p, cfg), Error);
}

TEST(TansCodecAdversarial, SequenceCountBombRejected) {
  // Regression (post-review): a lane claiming 2^32 - 1 sequences in a
  // ~30-byte payload passed every structural check and reached
  // block.sequences.resize (~51 GB) + record-arena resize (~17 GB),
  // escaping as std::bad_alloc. Both the standalone plausibility cap and
  // the container's exact block-size bound must reject it with Error.
  const auto parts = adversarial::craft_parts();
  Bytes p;
  put_varint(p, 0xFFFFFFFFull);  // n_seq
  put_varint(p, 0);              // n_literals
  put_varint(p, 1);              // n_subblocks
  p.insert(p.end(), parts.record_model.begin(), parts.record_model.end());
  put_varint(p, 0xFFFFFFFFull);  // the single lane claims them all
  put_varint(p, 0);
  put_varint(p, parts.record_stream.size());
  put_varint(p, 0);
  p.insert(p.end(), parts.record_stream.begin(), parts.record_stream.end());
  TansCodecConfig cfg;
  EXPECT_THROW(decode_block_tans(p, cfg), Error);  // plausibility cap
  DecodeScratch scratch;
  EXPECT_THROW(decode_block_tans(p, cfg, scratch, nullptr, 256 * 1024),
               Error);  // exact block-size bound
  // Same for a literal-count bomb.
  Bytes q;
  put_varint(q, 1);
  put_varint(q, 0xFFFFFFFFull);
  put_varint(q, 1);
  EXPECT_THROW(decode_block_tans(q, cfg), Error);
}

TEST(TansCodecAdversarial, BlockCountsBeyond32BitsRejected) {
  const auto parts = adversarial::craft_parts();
  Bytes p;
  put_varint(p, 1ull << 33);  // n_seq beyond any block's output bound
  put_varint(p, 0);
  put_varint(p, 1);
  p.insert(p.end(), parts.record_model.begin(), parts.record_model.end());
  TansCodecConfig cfg;
  EXPECT_THROW(decode_block_tans(p, cfg), Error);
}

TEST(TansCodecAdversarial, TruncatedPayloadThrows) {
  TansCodecConfig cfg;
  const lz77::TokenBlock tokens = parse_for_tans(datagen::wikipedia(20000));
  const Bytes payload = encode_block_tans(tokens, cfg);
  for (const double frac : {0.0, 0.1, 0.5, 0.95}) {
    Bytes cut(payload.begin(),
              payload.begin() + static_cast<std::ptrdiff_t>(payload.size() * frac));
    EXPECT_THROW(decode_block_tans(cut, cfg), Error);
  }
}

TEST(TansCodecAdversarial, RandomMutationFuzzNeverCrashes) {
  // Beyond single-byte flips: random multi-byte mutations, splices and
  // truncations must always end in a clean decode or a clean Error.
  TansCodecConfig cfg;
  cfg.tokens_per_subblock = 8;
  const Bytes input = datagen::matrix(30000);
  const lz77::TokenBlock tokens = parse_for_tans(input);
  const Bytes payload = encode_block_tans(tokens, cfg);
  Rng rng(0xC0FFEE);
  const int trials = gompresso::testing::fuzz_trials(300);  // nightly: 10x
  for (int trial = 0; trial < trials; ++trial) {
    Bytes bad = payload;
    const int edits = 1 + static_cast<int>(rng.next_below(8));
    for (int e = 0; e < edits; ++e) {
      const std::size_t at = rng.next_below(bad.size());
      bad[at] = static_cast<std::uint8_t>(rng.next_u32());
    }
    if (rng.next_below(4) == 0) {
      bad.resize(1 + rng.next_below(bad.size()));
    }
    try {
      const lz77::TokenBlock back = decode_block_tans(bad, cfg);
      (void)back;  // structurally valid mutation: container CRC's job
    } catch (const Error&) {
      // clean rejection
    }
  }
}

TEST(TansEndToEnd, FullPipelineRoundTrip) {
  for (const bool de : {false, true}) {
    CompressOptions opt;
    opt.codec = Codec::kTans;
    opt.dependency_elimination = de;
    opt.block_size = 64 * 1024;
    for (const int which : {0, 1, 2}) {
      const Bytes input = which == 0   ? datagen::wikipedia(300000)
                          : which == 1 ? datagen::matrix(300000)
                                       : datagen::random_bytes(150000);
      CompressStats stats;
      const Bytes file = compress(input, opt, &stats);
      const DecompressResult r = decompress(file);
      EXPECT_EQ(r.data, input) << "de=" << de << " which=" << which;
      // A DE tans stream must also satisfy the simulator's strict
      // single-round DE resolver (no intra-group dependencies).
      const sim::Strategy strategy =
          de ? sim::Strategy::kDependencyFree : sim::Strategy::kMultiRound;
      EXPECT_EQ(sim::decompress(file, strategy).data, input) << "which=" << which;
    }
  }
}

TEST(TansEndToEnd, RatioBetweenByteAndBit) {
  const Bytes input = datagen::wikipedia(500000);
  auto ratio_of = [&](Codec c, std::uint32_t tps) {
    CompressOptions opt;
    opt.codec = c;
    opt.tokens_per_subblock = tps;
    CompressStats stats;
    compress(input, opt, &stats);
    return stats.ratio();
  };
  const double byte_r = ratio_of(Codec::kByte, 16);
  const double tans_r = ratio_of(Codec::kTans, 16);
  const double bit_r = ratio_of(Codec::kBit, 16);
  EXPECT_GT(tans_r, byte_r) << "entropy coding must beat raw records";
  // Order-0 coding of packed record bytes cannot reach the Huffman
  // stage's semantic symbols, but must land within ~2/3 of it.
  EXPECT_GT(tans_r, bit_r * 0.6);
  // Larger sub-blocks amortise per-stream state overhead (the Tans
  // analogue of the §III-A parallelism-vs-ratio trade-off).
  const double tans_big = ratio_of(Codec::kTans, 128);
  EXPECT_GT(tans_big, tans_r);
}

TEST(TansEndToEnd, LaneFanOutDeterminismAcrossCorpora) {
  // 1T vs NT decompression must be byte-identical on every datagen
  // corpus, both for the single-block intra-block fan-out path and for
  // the multi-block inter-block path.
  for (const char* name : {"wikipedia", "matrix", "random"}) {
    const Bytes input = datagen::by_name(name, 200000);
    for (const std::uint32_t block_size : {512u * 1024u, 48u * 1024u}) {
      CompressOptions opt;
      opt.codec = Codec::kTans;
      opt.block_size = block_size;
      const Bytes file = compress(input, opt);
      DecompressOptions one;
      one.num_threads = 1;
      const DecompressResult serial = decompress(file, one);
      DecompressOptions many;
      many.num_threads = 4;
      const DecompressResult parallel = decompress(file, many);
      ASSERT_EQ(serial.data, input) << name << " block_size=" << block_size;
      ASSERT_EQ(parallel.data, input) << name << " block_size=" << block_size;
      if (block_size > input.size() && std::string(name) != "random") {
        // (random compresses to a stored block, which has no lanes.)
        EXPECT_EQ(parallel.scratch.lane_fanouts, 1u)
            << name << ": single block + 4 threads must fan out lanes";
      }
      EXPECT_EQ(serial.scratch.lane_fanouts, 0u);
    }
  }
}

TEST(TansEndToEnd, RejectsBadTableLog) {
  CompressOptions opt;
  opt.codec = Codec::kTans;
  opt.tans_table_log = 8;
  EXPECT_THROW(compress(Bytes(2048, 'a'), opt), Error);
}

}  // namespace
}  // namespace gompresso::core
