// Unit tests for the container format header (paper Fig. 3).
#include <gtest/gtest.h>

#include <string>

#include "core/gompresso.hpp"
#include "format/header.hpp"
#include "serve/byte_source.hpp"

namespace gompresso::format {
namespace {

FileHeader sample_header() {
  FileHeader h;
  h.codec = Codec::kBit;
  h.dependency_elimination = true;
  h.codeword_limit = 10;
  h.window_size = 8192;
  h.min_match = 3;
  h.max_match = 64;
  h.block_size = 256 * 1024;
  h.tokens_per_subblock = 16;
  h.uncompressed_size = 123456789;
  h.block_compressed_sizes = {1000, 2000, 30000, 5};
  return h;
}

TEST(FileHeaderTest, RoundTrip) {
  const FileHeader h = sample_header();
  const Bytes buf = h.serialize();
  std::size_t pos = 0;
  const FileHeader g = FileHeader::deserialize(buf, pos);
  EXPECT_EQ(pos, buf.size());
  EXPECT_EQ(g.codec, h.codec);
  EXPECT_EQ(g.dependency_elimination, h.dependency_elimination);
  EXPECT_EQ(g.codeword_limit, h.codeword_limit);
  EXPECT_EQ(g.window_size, h.window_size);
  EXPECT_EQ(g.min_match, h.min_match);
  EXPECT_EQ(g.max_match, h.max_match);
  EXPECT_EQ(g.block_size, h.block_size);
  EXPECT_EQ(g.tokens_per_subblock, h.tokens_per_subblock);
  EXPECT_EQ(g.uncompressed_size, h.uncompressed_size);
  EXPECT_EQ(g.block_compressed_sizes, h.block_compressed_sizes);
  EXPECT_EQ(g.num_blocks(), 4u);
}

TEST(FileHeaderTest, ByteCodecRoundTrip) {
  FileHeader h = sample_header();
  h.codec = Codec::kByte;
  h.dependency_elimination = false;
  const Bytes buf = h.serialize();
  std::size_t pos = 0;
  const FileHeader g = FileHeader::deserialize(buf, pos);
  EXPECT_EQ(g.codec, Codec::kByte);
  EXPECT_FALSE(g.dependency_elimination);
}

TEST(FileHeaderTest, BadMagicThrows) {
  Bytes buf = sample_header().serialize();
  buf[0] ^= 0xFF;
  std::size_t pos = 0;
  EXPECT_THROW(FileHeader::deserialize(buf, pos), Error);
}

TEST(FileHeaderTest, BadVersionThrows) {
  Bytes buf = sample_header().serialize();
  buf[4] = 99;
  std::size_t pos = 0;
  EXPECT_THROW(FileHeader::deserialize(buf, pos), Error);
}

TEST(FileHeaderTest, UnknownCodecThrows) {
  Bytes buf = sample_header().serialize();
  buf[5] = 7;
  std::size_t pos = 0;
  EXPECT_THROW(FileHeader::deserialize(buf, pos), Error);
}

/// The FormatError message `f` throws, or "" when it throws nothing.
template <typename F>
std::string format_error_of(F&& f) {
  try {
    f();
  } catch (const FormatError& e) {
    return e.what();
  }
  return "";
}

TEST(FileHeaderTest, RemovedTansCodecRejectedByName) {
  // Codec byte 2 was Gompresso/Tans; files that carry it fail with a
  // typed error that names the codec, not as an unknown one.
  Bytes buf = sample_header().serialize();
  buf[5] = 2;
  std::size_t pos = 0;
  const std::string msg = format_error_of([&] { FileHeader::deserialize(buf, pos); });
  EXPECT_NE(msg.find("Tans"), std::string::npos) << msg;

  buf[5] = 3;
  pos = 0;
  EXPECT_NE(format_error_of([&] { FileHeader::deserialize(buf, pos); })
                .find("unknown codec"),
            std::string::npos);
}

TEST(FileHeaderTest, RemovedTansCodecRejectedByDecompressAndOpen) {
  Bytes file = compress(Bytes(5000, 'a'));
  ASSERT_EQ(file[5], static_cast<std::uint8_t>(Codec::kBit));
  file[5] = 2;
  EXPECT_NE(format_error_of([&] { decompress(file); }).find("Tans"), std::string::npos);
  EXPECT_NE(format_error_of([&] { gompresso::open(serve::memory_source(file)); })
                .find("Tans"),
            std::string::npos);
}

TEST(FileHeaderTest, TruncationThrows) {
  const Bytes buf = sample_header().serialize();
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3}, std::size_t{6},
                                 buf.size() / 2, buf.size() - 1}) {
    Bytes cut(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(keep));
    std::size_t pos = 0;
    EXPECT_THROW(FileHeader::deserialize(cut, pos), Error) << "keep=" << keep;
  }
}

TEST(FileHeaderTest, EmptyBlockListAllowed) {
  FileHeader h = sample_header();
  h.block_compressed_sizes.clear();
  h.uncompressed_size = 0;
  const Bytes buf = h.serialize();
  std::size_t pos = 0;
  const FileHeader g = FileHeader::deserialize(buf, pos);
  EXPECT_EQ(g.num_blocks(), 0u);
}

TEST(FileHeaderTest, CheckPayloadAcceptsExactTotals) {
  FileHeader h = sample_header();
  h.block_size = 1000;
  h.uncompressed_size = 3500;  // 4 blocks, matching the 4 size entries
  EXPECT_NO_THROW(h.check_payload(1000 + 2000 + 30000 + 5));
}

TEST(FileHeaderTest, CheckPayloadRejectsShortAndLongPayloads) {
  FileHeader h = sample_header();
  h.block_size = 1000;
  h.uncompressed_size = 3500;
  const std::uint64_t total = 1000 + 2000 + 30000 + 5;
  EXPECT_THROW(h.check_payload(total - 1), Error);  // truncated file
  EXPECT_THROW(h.check_payload(total + 1), Error);  // trailing garbage
  EXPECT_THROW(h.check_payload(0), Error);
}

TEST(FileHeaderTest, CheckPayloadRejectsBlockCountMismatch) {
  FileHeader h = sample_header();
  h.block_size = 1000;
  h.uncompressed_size = 4500;  // needs 5 blocks, size list has 4
  EXPECT_THROW(h.check_payload(1000 + 2000 + 30000 + 5), Error);
}

TEST(FileHeaderTest, CheckPayloadSurvivesAdversarialSizes) {
  // Sizes crafted so a naive sum would wrap around 2^64 and "match".
  FileHeader h = sample_header();
  h.block_size = 1000;
  h.uncompressed_size = 3500;
  h.block_compressed_sizes = {0xFFFFFFFFFFFFFFFFull, 2, 30000, 5};
  EXPECT_THROW(h.check_payload(30006), Error);
}

TEST(FileHeaderTest, ReaderDeserializeMatchesSpanDeserialize) {
  const FileHeader h = sample_header();
  const Bytes buf = h.serialize();
  util::SpanReader reader(buf);
  const FileHeader g = FileHeader::deserialize(reader);
  EXPECT_EQ(reader.offset(), buf.size());
  EXPECT_EQ(g.block_compressed_sizes, h.block_compressed_sizes);
  EXPECT_EQ(g.uncompressed_size, h.uncompressed_size);
}

}  // namespace
}  // namespace gompresso::format
