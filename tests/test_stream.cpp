// Tests for the bounded-memory streaming layer.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/compressor.hpp"
#include "core/stream.hpp"
#include "datagen/datasets.hpp"
#include "format/header.hpp"
#include "sequential_buf.hpp"

namespace gompresso {
namespace {

std::string to_string(const Bytes& b) { return {b.begin(), b.end()}; }

TEST(Stream, RoundTripMultipleSegments) {
  const Bytes input = datagen::wikipedia(700000);
  std::istringstream in(to_string(input));
  std::ostringstream compressed;
  CompressOptions opt;
  opt.block_size = 32 * 1024;
  // Small chunks force several segments.
  EXPECT_EQ(compress_stream(in, compressed, opt, 128 * 1024), input.size());

  std::istringstream cin(compressed.str());
  std::ostringstream out;
  EXPECT_EQ(decompress_stream(cin, out), input.size());
  EXPECT_EQ(out.str(), to_string(input));
}

TEST(Stream, EmptyInput) {
  std::istringstream in("");
  std::ostringstream compressed;
  EXPECT_EQ(compress_stream(in, compressed, {}), 0u);
  std::istringstream cin(compressed.str());
  std::ostringstream out;
  EXPECT_EQ(decompress_stream(cin, out), 0u);
  EXPECT_TRUE(out.str().empty());
}

TEST(Stream, SingleSegmentExactChunk) {
  const Bytes input = datagen::matrix(131072);
  std::istringstream in(to_string(input));
  std::ostringstream compressed;
  CompressOptions opt;
  opt.block_size = 32 * 1024;
  compress_stream(in, compressed, opt, 131072);
  std::istringstream cin(compressed.str());
  std::ostringstream out;
  decompress_stream(cin, out);
  EXPECT_EQ(out.str(), to_string(input));
}

TEST(Stream, AllCodecsStream) {
  const Bytes input = datagen::matrix(300000);
  for (const Codec c : {Codec::kByte, Codec::kBit}) {
    std::istringstream in(to_string(input));
    std::ostringstream compressed;
    CompressOptions opt;
    opt.codec = c;
    opt.block_size = 64 * 1024;
    compress_stream(in, compressed, opt, 100000);
    std::istringstream cin(compressed.str());
    std::ostringstream out;
    decompress_stream(cin, out);
    EXPECT_EQ(out.str(), to_string(input)) << "codec " << static_cast<int>(c);
  }
}

TEST(Stream, BadMagicThrows) {
  std::istringstream cin("NOPE....");
  std::ostringstream out;
  EXPECT_THROW(decompress_stream(cin, out), Error);
}

TEST(Stream, TruncatedSegmentThrows) {
  const Bytes input = datagen::wikipedia(200000);
  std::istringstream in(to_string(input));
  std::ostringstream compressed;
  CompressOptions opt;
  opt.block_size = 32 * 1024;  // chunk must hold at least one block
  compress_stream(in, compressed, opt, 100000);
  const std::string full = compressed.str();
  std::istringstream cin(full.substr(0, full.size() / 2));
  std::ostringstream out;
  EXPECT_THROW(decompress_stream(cin, out), Error);
}

TEST(Stream, MissingTerminatorThrows) {
  const Bytes input = datagen::wikipedia(50000);
  std::istringstream in(to_string(input));
  std::ostringstream compressed;
  compress_stream(in, compressed, {});
  std::string full = compressed.str();
  full.pop_back();  // drop the terminator varint
  std::istringstream cin(full);
  std::ostringstream out;
  EXPECT_THROW(decompress_stream(cin, out), Error);
}

TEST(Stream, RejectsChunkSmallerThanBlock) {
  std::istringstream in("abc");
  std::ostringstream compressed;
  CompressOptions opt;
  opt.block_size = 256 * 1024;
  EXPECT_THROW(compress_stream(in, compressed, opt, 1024), Error);
}

using testing::SequentialBuf;

TEST(Stream, NonSeekableInputUsesSequentialBoundedPath) {
  const Bytes input = datagen::wikipedia(400000);
  std::istringstream in(to_string(input));
  std::ostringstream compressed;
  CompressOptions opt;
  opt.block_size = 32 * 1024;
  compress_stream(in, compressed, opt, 120000);  // several segments

  SequentialBuf buf(compressed.str());
  std::istream cin(&buf);
  ASSERT_EQ(cin.tellg(), std::istream::pos_type(-1));  // really not seekable
  cin.clear();
  std::ostringstream out;
  EXPECT_EQ(decompress_stream(cin, out), input.size());
  EXPECT_EQ(out.str(), to_string(input));

  // Multi-threaded batch decode on the pipe path produces the same bytes.
  SequentialBuf buf4(compressed.str());
  std::istream cin4(&buf4);
  cin4.clear();
  std::ostringstream out4;
  DecompressOptions dopt;
  dopt.num_threads = 4;
  EXPECT_EQ(decompress_stream(cin4, out4, dopt), input.size());
  EXPECT_EQ(out4.str(), to_string(input));
}

TEST(Stream, NonSeekableConsumptionIsByteExact) {
  // Two concatenated streams through one pipe: the first decode must
  // consume exactly through its terminator so the second still parses.
  const Bytes a = datagen::wikipedia(120000);
  const Bytes b = datagen::matrix(90000);
  std::string both;
  for (const Bytes* input : {&a, &b}) {
    std::istringstream in(to_string(*input));
    std::ostringstream compressed;
    CompressOptions opt;
    opt.block_size = 32 * 1024;
    compress_stream(in, compressed, opt, 64 * 1024);
    both += compressed.str();
  }
  SequentialBuf buf(both);
  std::istream cin(&buf);
  cin.clear();
  std::ostringstream out_a, out_b;
  EXPECT_EQ(decompress_stream(cin, out_a), a.size());
  EXPECT_EQ(out_a.str(), to_string(a));
  EXPECT_EQ(decompress_stream(cin, out_b), b.size());
  EXPECT_EQ(out_b.str(), to_string(b));
}

TEST(Stream, NonSeekableAcceptsBareContainer) {
  // The documented contract: either decode path serves a bare GMPZ
  // container, including through a pipe.
  const Bytes input = datagen::wikipedia(150000);
  CompressOptions opt;
  opt.block_size = 32 * 1024;
  const Bytes file = compress(input, opt);
  SequentialBuf buf(std::string(file.begin(), file.end()));
  std::istream cin(&buf);
  cin.clear();
  std::ostringstream out;
  EXPECT_EQ(decompress_stream(cin, out), input.size());
  EXPECT_EQ(out.str(), to_string(input));
}

TEST(Stream, NonSeekableBareContainerBlockCountMismatchThrows) {
  // A corrupt bare-container header claiming fewer blocks than
  // ceil(uncompressed_size / block_size) used to emit truncated output
  // and return success on the pipe path (no framing payload size to
  // validate against); the block-count invariant must still be checked.
  const Bytes input = datagen::wikipedia(150000);
  CompressOptions opt;
  opt.block_size = 32 * 1024;
  const Bytes file = compress(input, opt);
  std::size_t pos = 0;
  format::FileHeader h = format::FileHeader::deserialize(file, pos);
  ASSERT_GT(h.num_blocks(), 1u);
  const std::size_t last_payload =
      static_cast<std::size_t>(h.block_compressed_sizes.back());
  h.block_compressed_sizes.pop_back();  // claim one block fewer
  Bytes doctored = h.serialize();
  doctored.insert(doctored.end(), file.begin() + pos, file.end() - last_payload);
  SequentialBuf buf(std::string(doctored.begin(), doctored.end()));
  std::istream cin(&buf);
  cin.clear();
  std::ostringstream out;
  EXPECT_THROW(decompress_stream(cin, out), Error);
}

TEST(Stream, NonSeekableImplausibleBlockSizeRejected) {
  // On a pipe there is no payload length to validate the size list
  // against; a crafted tiny header claiming a multi-GiB compressed block
  // must fail with a clean Error, not attempt the allocation.
  format::FileHeader h;
  h.block_size = 1;
  h.uncompressed_size = 1;
  h.block_compressed_sizes = {1ull << 35};
  const Bytes doctored = h.serialize();
  SequentialBuf buf(std::string(doctored.begin(), doctored.end()));
  std::istream cin(&buf);
  cin.clear();
  std::ostringstream out;
  EXPECT_THROW(decompress_stream(cin, out), Error);
}

TEST(Stream, NonSeekableTruncatedInputThrows) {
  const Bytes input = datagen::wikipedia(100000);
  std::istringstream in(to_string(input));
  std::ostringstream compressed;
  CompressOptions opt;
  opt.block_size = 32 * 1024;
  compress_stream(in, compressed, opt, 100000);
  const std::string full = compressed.str();
  SequentialBuf buf(full.substr(0, full.size() / 2));
  std::istream cin(&buf);
  cin.clear();
  std::ostringstream out;
  EXPECT_THROW(decompress_stream(cin, out), Error);
}

TEST(Stream, DecompressStreamAcceptsBareContainer) {
  // The session-backed decoder serves a plain GMPZ container through the
  // streaming front end too.
  const Bytes input = datagen::matrix(150000);
  CompressOptions opt;
  opt.block_size = 32 * 1024;
  const Bytes file = compress(input, opt);
  std::istringstream cin(std::string(file.begin(), file.end()));
  std::ostringstream out;
  EXPECT_EQ(decompress_stream(cin, out), input.size());
  EXPECT_EQ(out.str(), to_string(input));
}

TEST(Stream, MultiThreadedStreamDecodeMatches) {
  const Bytes input = datagen::wikipedia(500000);
  std::istringstream in(to_string(input));
  std::ostringstream compressed;
  CompressOptions opt;
  opt.block_size = 16 * 1024;
  compress_stream(in, compressed, opt, 150000);
  std::istringstream cin(compressed.str());
  std::ostringstream out;
  DecompressOptions dopt;
  dopt.num_threads = 4;  // exercise the prefetch pipeline inside the stream path
  EXPECT_EQ(decompress_stream(cin, out, dopt), input.size());
  EXPECT_EQ(out.str(), to_string(input));
}

TEST(Stream, FileRoundTrip) {
  const Bytes input = datagen::wikipedia(250000);
  const std::string src = "/tmp/gompresso_stream_src.bin";
  const std::string gz = "/tmp/gompresso_stream.gmps";
  const std::string back = "/tmp/gompresso_stream_back.bin";
  {
    std::ofstream f(src, std::ios::binary);
    f.write(reinterpret_cast<const char*>(input.data()),
            static_cast<std::streamsize>(input.size()));
  }
  CompressOptions opt;
  opt.block_size = 32 * 1024;
  EXPECT_EQ(compress_file(src, gz, opt, 100000), input.size());
  EXPECT_EQ(decompress_file(gz, back), input.size());
  std::ifstream f(back, std::ios::binary);
  Bytes result((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  EXPECT_EQ(result, input);
}

}  // namespace
}  // namespace gompresso
