// Tests for the §V-D baseline codecs and the block-parallel wrapper.
#include <gtest/gtest.h>

#include "baselines/block_parallel.hpp"
#include "baselines/codec.hpp"
#include "baselines/deflate_like.hpp"
#include "datagen/datasets.hpp"
#include "fuzz_budget.hpp"
#include "util/rng.hpp"

namespace gompresso::baselines {
namespace {

/// An output span placed inside a buffer of canary bytes: a decode into
/// span() that writes past either end (a wild copy overrunning its
/// slice, say) changes a canary. ASan cannot see such a write, because
/// it stays inside one allocation.
class GuardedSpan {
 public:
  static constexpr std::size_t kGuard = 64;
  static constexpr std::uint8_t kCanary = 0xA5;

  explicit GuardedSpan(std::size_t size) : buf_(size + 2 * kGuard, kCanary), size_(size) {}

  MutableByteSpan span() { return MutableByteSpan(buf_.data() + kGuard, size_); }
  Bytes contents() const {
    return Bytes(buf_.begin() + kGuard, buf_.begin() + static_cast<long>(kGuard + size_));
  }
  bool canaries_intact() const {
    for (std::size_t i = 0; i < kGuard; ++i) {
      if (buf_[i] != kCanary || buf_[kGuard + size_ + i] != kCanary) return false;
    }
    return true;
  }

 private:
  Bytes buf_;
  std::size_t size_;
};

/// Decodes one payload of a `size`-byte block into a guarded span.
Bytes decode_guarded(const Codec& codec, ByteSpan payload, std::size_t size) {
  GuardedSpan out(size);
  codec.decompress_block(payload, out.span());
  EXPECT_TRUE(out.canaries_intact()) << codec.name();
  return out.contents();
}

/// Text, long runs and random bytes: matches at distance 1, 2-15 and
/// 16+, each both far from the block end (wild copies) and within a
/// chunk of it (exact copies).
Bytes mixed_input() {
  Bytes input = datagen::wikipedia(24000);
  input.insert(input.end(), 3000, 'e');
  const Bytes pattern = {'a', 'b', 'c', 'd', 'e', 'f', 'g'};
  for (int i = 0; i < 500; ++i) input.insert(input.end(), pattern.begin(), pattern.end());
  const Bytes noise = datagen::random_bytes(2000, 5);
  input.insert(input.end(), noise.begin(), noise.end());
  const Bytes tail = datagen::wikipedia(3000);
  input.insert(input.end(), tail.begin(), tail.end());
  return input;
}

std::unique_ptr<Codec> make_codec(int id) {
  switch (id) {
    case 0: return make_lz4_like();
    case 1: return make_snappy_like();
    case 2: return make_deflate_like();
    case 3: return make_zstd_like();
  }
  return nullptr;
}

class BaselineRoundTrip : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BaselineRoundTrip, SingleBlock) {
  const auto [codec_id, which] = GetParam();
  const auto codec = make_codec(codec_id);
  Bytes input;
  switch (which) {
    case 0: input = datagen::wikipedia(120000); break;
    case 1: input = datagen::matrix(120000); break;
    case 2: input = datagen::random_bytes(60000); break;
    case 3: input = Bytes(90000, 'e'); break;
    case 4: input = Bytes{}; break;
    case 5: input = Bytes{'q'}; break;
    case 6: {
      Rng rng(17);
      input.resize(33333);
      for (auto& b : input) b = static_cast<std::uint8_t>('a' + rng.next_below(4));
      break;
    }
    default: FAIL();
  }
  const Bytes payload = codec->compress_block(input);
  EXPECT_EQ(decode_guarded(*codec, payload, input.size()), input)
      << codec->name() << " dataset " << which;
}

INSTANTIATE_TEST_SUITE_P(CodecsAndInputs, BaselineRoundTrip,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(0, 1, 2, 3, 4, 5, 6)));

TEST(BaselineRatios, ExpectedOrderingOnText) {
  // Bit-level codecs out-compress byte-level ones on text; every real
  // compressor beats size on compressible input.
  const Bytes input = datagen::wikipedia(400000);
  const double lz4 = static_cast<double>(input.size()) /
                     make_lz4_like()->compress_block(input).size();
  const double snappy = static_cast<double>(input.size()) /
                        make_snappy_like()->compress_block(input).size();
  const double zlib = static_cast<double>(input.size()) /
                      make_deflate_like()->compress_block(input).size();
  const double zstd = static_cast<double>(input.size()) /
                      make_zstd_like()->compress_block(input).size();
  EXPECT_GT(lz4, 1.3);
  EXPECT_GT(snappy, 1.3);
  EXPECT_GT(zlib, lz4) << "entropy stage must beat byte-aligned tokens";
  EXPECT_GT(zlib, snappy);
  EXPECT_GT(zstd, lz4);
}

TEST(BaselineRatios, IncompressibleExpandsOnlySlightly) {
  const Bytes input = datagen::random_bytes(100000);
  for (int id = 0; id < 4; ++id) {
    const auto codec = make_codec(id);
    const Bytes payload = codec->compress_block(input);
    EXPECT_LT(payload.size(), input.size() + input.size() / 8 + 1024) << codec->name();
  }
}

TEST(DeflateChainDepth, DeeperChainsCompressBetter) {
  const Bytes input = datagen::wikipedia(300000);
  const DeflateLike shallow(1);
  const DeflateLike deep(64);
  const Bytes p_shallow = shallow.compress_block(input);
  const Bytes p_deep = deep.compress_block(input);
  EXPECT_LE(p_deep.size(), p_shallow.size());
  EXPECT_EQ(decode_guarded(deep, p_deep, input.size()), input);
}

TEST(BlockParallel, RoundTripAllCodecs) {
  const Bytes input = datagen::matrix(5 * 1024 * 1024);  // several 2 MB blocks
  for (int id = 0; id < 4; ++id) {
    const auto codec = make_codec(id);
    const Bytes file = compress_parallel(*codec, input);
    EXPECT_EQ(decompress_parallel(*codec, file), input) << codec->name();
  }
}

TEST(BlockParallel, CustomBlockSizeAndThreads) {
  const Bytes input = datagen::wikipedia(700000);
  const auto codec = make_lz4_like();
  for (const std::uint32_t bs : {64u * 1024u, 256u * 1024u}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const Bytes file = compress_parallel(*codec, input, bs, threads);
      EXPECT_EQ(decompress_parallel(*codec, file, threads), input)
          << "bs=" << bs << " threads=" << threads;
    }
  }
}

TEST(BlockParallel, EmptyInput) {
  const auto codec = make_snappy_like();
  const Bytes file = compress_parallel(*codec, Bytes{});
  EXPECT_TRUE(decompress_parallel(*codec, file).empty());
}

TEST(BlockParallel, CorruptBlockDetectedByCrc) {
  const Bytes input = datagen::wikipedia(300000);
  const auto codec = make_lz4_like();
  Bytes file = compress_parallel(*codec, input, 64 * 1024);
  // Flip a byte in the middle of the payload area.
  file[file.size() / 2] ^= 0xFF;
  EXPECT_THROW(decompress_parallel(*codec, file), Error);
}

TEST(BlockParallel, BadMagicThrows) {
  Bytes junk = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto codec = make_lz4_like();
  EXPECT_THROW(decompress_parallel(*codec, junk), Error);
}

TEST(BlockParallel, TruncatedFileThrows) {
  const Bytes input = datagen::matrix(200000);
  const auto codec = make_zstd_like();
  const Bytes file = compress_parallel(*codec, input, 64 * 1024);
  Bytes cut(file.begin(), file.begin() + static_cast<std::ptrdiff_t>(file.size() / 2));
  EXPECT_THROW(decompress_parallel(*codec, cut), Error);
}

TEST(SpanDecode, MutatedPayloadsThrowOrStayInsideTheirSpan) {
  // Byte flips and truncations of one block's payload: the decode must
  // succeed or throw Error, and never write outside its span.
  const Bytes input = mixed_input();
  const int trials = testing::fuzz_trials(300);
  for (int id = 0; id < 4; ++id) {
    const auto codec = make_codec(id);
    const Bytes payload = codec->compress_block(input);
    ASSERT_EQ(decode_guarded(*codec, payload, input.size()), input) << codec->name();
    Rng rng(0xC0DEC + static_cast<std::uint64_t>(id));
    for (int trial = 0; trial < trials; ++trial) {
      Bytes m = payload;
      if (rng.next_below(4) == 0) {
        m.resize(rng.next_below(m.size()));
      } else {
        const std::uint64_t flips = 1 + rng.next_below(4);
        for (std::uint64_t i = 0; i < flips; ++i) {
          m[rng.next_below(m.size())] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
        }
      }
      GuardedSpan out(input.size());
      try {
        codec->decompress_block(m, out.span());
      } catch (const Error&) {
      }
      ASSERT_TRUE(out.canaries_intact()) << codec->name() << " trial " << trial;
    }
  }
}

TEST(SpanDecode, MutatedBlockLeavesItsNeighboursIntact) {
  // Blocks decode in parallel into adjacent slices of one buffer, so a
  // neighbour's bytes are the canaries: flip bytes in one block's
  // payload and, if the file still decodes (CRCs off), every other
  // block must read back exactly. Under TSan a write into a neighbour's
  // slice is also a race.
  const Bytes input = mixed_input();
  constexpr std::uint32_t kBlock = 4096;
  const std::size_t num_blocks = div_ceil(input.size(), std::size_t{kBlock});
  const int trials = testing::fuzz_trials(50);
  for (int id = 0; id < 4; ++id) {
    const auto codec = make_codec(id);
    const Bytes file = compress_parallel(*codec, input, kBlock, 1);
    // Payloads (CRC32 + codec payload) sit back to back at the file's end.
    std::vector<std::size_t> begin(num_blocks + 1, file.size());
    for (std::size_t b = num_blocks; b-- > 0;) {
      const std::size_t len = std::min<std::size_t>(kBlock, input.size() - b * kBlock);
      const ByteSpan block(input.data() + b * kBlock, len);
      begin[b] = begin[b + 1] - 4 - codec->compress_block(block).size();
    }
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      Rng rng(0xB10C + static_cast<std::uint64_t>(id) * 10 + threads);
      for (int trial = 0; trial < trials; ++trial) {
        const std::size_t hit = rng.next_below(num_blocks);
        Bytes m = file;
        const std::uint64_t flips = 1 + rng.next_below(4);
        for (std::uint64_t i = 0; i < flips; ++i) {
          const std::size_t at = begin[hit] + 4 + rng.next_below(begin[hit + 1] - begin[hit] - 4);
          m[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
        }
        Bytes out;
        try {
          out = decompress_parallel(*codec, m, threads, /*verify_checksums=*/false);
        } catch (const Error&) {
          continue;
        }
        ASSERT_EQ(out.size(), input.size());
        for (std::size_t b = 0; b < num_blocks; ++b) {
          if (b == hit) continue;
          const std::size_t from = b * kBlock;
          const std::size_t to = std::min<std::size_t>(from + kBlock, input.size());
          ASSERT_TRUE(std::equal(out.begin() + static_cast<long>(from),
                                 out.begin() + static_cast<long>(to),
                                 input.begin() + static_cast<long>(from)))
              << codec->name() << " threads " << threads << " trial " << trial
              << ": block " << b << " changed by a flip in block " << hit;
        }
      }
    }
  }
}

}  // namespace
}  // namespace gompresso::baselines
