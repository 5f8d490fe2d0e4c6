// Unit and property tests for the tANS entropy coder.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "ans/tans.hpp"
#include "datagen/datasets.hpp"
#include "util/rng.hpp"
#include "util/varint.hpp"

namespace gompresso::ans {
namespace {

TEST(Normalize, SumsToTableAndKeepsPresent) {
  for (const unsigned log : {9u, 11u, 12u}) {
    std::vector<std::uint64_t> freqs(256, 0);
    Rng rng(log);
    for (int i = 0; i < 50; ++i) freqs[rng.next_below(256)] += 1 + rng.next_below(100000);
    const auto norm = normalize_frequencies(freqs, log);
    std::uint64_t sum = 0;
    for (std::size_t s = 0; s < 256; ++s) {
      sum += norm[s];
      if (freqs[s] != 0) EXPECT_GE(norm[s], 1u) << "present symbol dropped";
      if (freqs[s] == 0) EXPECT_EQ(norm[s], 0u) << "absent symbol appeared";
    }
    EXPECT_EQ(sum, 1ull << log);
  }
}

TEST(Normalize, EmptyInput) {
  const auto norm = normalize_frequencies(std::vector<std::uint64_t>(256, 0), 11);
  EXPECT_EQ(std::accumulate(norm.begin(), norm.end(), 0ull), 0ull);
}

TEST(Normalize, ExtremeSkew) {
  std::vector<std::uint64_t> freqs(256, 0);
  freqs['a'] = 1000000;
  freqs['b'] = 1;
  const auto norm = normalize_frequencies(freqs, 11);
  EXPECT_GE(norm['b'], 1u);
  EXPECT_EQ(norm['a'] + norm['b'], 2048u);
  EXPECT_GT(norm['a'], 2000u);
}

TEST(Tans, EmptyRoundTrip) {
  const Bytes empty;
  const Bytes payload = encode(empty);
  EXPECT_EQ(decode(payload), empty);
}

TEST(Tans, SingleSymbolRle) {
  const Bytes input(100000, 'x');
  const Bytes payload = encode(input);
  EXPECT_LT(payload.size(), 32u);  // header only
  EXPECT_EQ(decode(payload), input);
}

TEST(Tans, TwoSymbolStream) {
  Rng rng(5);
  Bytes input(50000);
  for (auto& b : input) b = rng.next_below(10) == 0 ? 'b' : 'a';
  const Bytes payload = encode(input);
  EXPECT_LT(payload.size(), input.size() / 2);  // H ~ 0.47 bits/sym
  EXPECT_EQ(decode(payload), input);
}

TEST(Tans, NearEntropyOnSkewedBytes) {
  // Geometric-ish distribution: entropy well below 8 bits.
  Rng rng(6);
  Bytes input(100000);
  for (auto& b : input) {
    const auto r = rng.next_below(100);
    b = r < 50 ? 0 : r < 75 ? 1 : r < 88 ? 2 : static_cast<std::uint8_t>(rng.next_below(256));
  }
  // Empirical entropy.
  std::vector<double> p(256, 0);
  for (const auto b : input) p[b] += 1;
  double h = 0;
  for (const auto c : p) {
    if (c > 0) h -= c / input.size() * std::log2(c / input.size());
  }
  const Bytes payload = encode(input);
  const double bits_per_sym = 8.0 * payload.size() / input.size();
  EXPECT_LT(bits_per_sym, h + 0.25) << "tANS should be within ~0.25 bits of entropy";
  EXPECT_EQ(decode(payload), input);
}

class TansRoundTrip : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(TansRoundTrip, RandomAndRealisticData) {
  const auto [which, table_log] = GetParam();
  Bytes input;
  switch (which) {
    case 0: input = datagen::random_bytes(40000, 1); break;
    case 1: input = datagen::wikipedia(40000); break;
    case 2: input = datagen::matrix(40000); break;
    case 3: input = Bytes{0x00}; break;
    case 4: {
      input.resize(517);  // odd size, tiny alphabet
      Rng rng(9);
      for (auto& b : input) b = static_cast<std::uint8_t>(rng.next_below(3) + 'p');
      break;
    }
    default: FAIL();
  }
  const Bytes payload = encode(input, table_log);
  EXPECT_EQ(decode(payload), input);
}

INSTANTIATE_TEST_SUITE_P(Inputs, TansRoundTrip,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                                            ::testing::Values(9u, 11u, 13u)));

TEST(Tans, CorruptPayloadDetected) {
  const Bytes input = datagen::wikipedia(20000);
  const Bytes payload = encode(input);
  // Header corruptions must throw; bitstream corruptions either throw or
  // produce different output (caught by the container CRC in real use).
  for (std::size_t at = 0; at < payload.size(); at += payload.size() / 23 + 1) {
    Bytes bad = payload;
    bad[at] ^= 0x41;
    try {
      const Bytes back = decode(bad);
      EXPECT_NE(back, input) << "undetected corruption at " << at;
    } catch (const Error&) {
      // expected for structural damage
    }
  }
}

TEST(Tans, TruncatedPayloadThrows) {
  const Bytes input = datagen::matrix(20000);
  const Bytes payload = encode(input);
  Bytes cut(payload.begin(), payload.begin() + 3);
  EXPECT_THROW(decode(cut), Error);
  EXPECT_THROW(decode(Bytes{}), Error);
}

TEST(Tans, RejectsBadTableLog) {
  EXPECT_THROW(encode(Bytes(10, 'a'), 3), Error);
  EXPECT_THROW(encode(Bytes(10, 'a'), 20), Error);
}

TEST(TansModel, SharedModelStreamsRoundTrip) {
  const Bytes data = datagen::wikipedia(50000);
  std::vector<std::uint64_t> freqs(256, 0);
  for (const auto b : data) ++freqs[b];
  const Model model = Model::from_frequencies(freqs, 11);

  // Many independent streams against one model.
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
  const Model model = Model::from_frequencies(freqs, 10);
  Bytes buf;
  model.serialize(buf);
  std::size_t pos = 0;
  const Model back = Model::deserialize(buf, pos);
  EXPECT_EQ(pos, buf.size());
  EXPECT_EQ(back.table_log(), 10u);
  const Bytes msg = {'x', 'y', 'x', 'z', 'x', 'y'};
  EXPECT_EQ(back.decode_stream(model.encode_stream(msg), msg.size()), msg);
}

TEST(TansModel, RejectsForeignSymbols) {
  std::vector<std::uint64_t> freqs(256, 0);
  freqs['a'] = 10;
  freqs['b'] = 10;
  const Model model = Model::from_frequencies(freqs, 9);
  const Bytes msg = {'a', 'c'};
  EXPECT_THROW(model.encode_stream(msg), Error);
}

TEST(TansModelFastPath, DecodeStreamHandlesEveryTailLength) {
  const Bytes data = datagen::wikipedia(30000);
  std::vector<std::uint64_t> freqs(256, 0);
  for (const auto b : data) ++freqs[b];
  const Model model = Model::from_frequencies(freqs, 11);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                              std::size_t{4}, std::size_t{7}, std::size_t{4096}}) {
    const ByteSpan piece(data.data(), n);
    const Bytes out = model.decode_stream(model.encode_stream(piece), n);
    ASSERT_EQ(out.size(), n);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), piece.begin())) << "n=" << n;
  }
}

TEST(TansModelFastPath, WrappingInnerStreamSizeRejected) {
  // A stream whose embedded byte-size varint sits near 2^64 must not wrap
  // the truncation check and read out of bounds.
  std::vector<std::uint64_t> freqs(256, 0);
  freqs['x'] = 3;
  freqs['y'] = 1;
  const Model model = Model::from_frequencies(freqs, 9);
  Bytes evil;
  put_varint(evil, 512);                      // valid start state for 2^9 tables
  put_varint(evil, 0xFFFFFFFFFFFFFFF0ull);    // stream_bytes wraps pos + size
  evil.push_back(0);
  EXPECT_THROW(model.decode_stream(evil, 4), Error);
}

}  // namespace
}  // namespace gompresso::ans
