// Tests for the serve subsystem: DecodeSession semantics (seek/read
// equivalence with batch decompression, block-boundary straddling,
// EOF behaviour, randomized read_at fuzz), the SeekIndex and its
// sidecar, the LRU cache, and the prefetch pipeline.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/gompresso.hpp"
#include "datagen/datasets.hpp"
#include "gmpz_session.hpp"
#include "serve/fault_source.hpp"
#include "util/rng.hpp"
#include "util/varint.hpp"

namespace gompresso {
namespace {

struct Fixture {
  Bytes input;
  Bytes file;  // single GMPZ container

  explicit Fixture(std::size_t size = 300000, std::uint32_t block_size = 32 * 1024,
                   Codec codec = Codec::kBit) {
    input = datagen::wikipedia(size);
    CompressOptions opt;
    opt.codec = codec;
    opt.block_size = block_size;
    file = compress(input, opt);
  }

  DecodeSession session(serve::SessionOptions opt = {}) const {
    return test::gmpz_session(serve::memory_source(file), std::move(opt));
  }
};

TEST(SeekIndex, MatchesHeaderForContainer) {
  const Fixture f;
  const auto source = serve::memory_source(f.file);
  const serve::SeekIndex index = serve::SeekIndex::build(*source);
  EXPECT_FALSE(index.is_stream());
  EXPECT_EQ(index.num_segments(), 1u);
  EXPECT_EQ(index.total_uncompressed(), f.input.size());
  EXPECT_EQ(index.source_size(), f.file.size());
  EXPECT_EQ(index.compressed_end(), f.file.size());
  // Blocks tile [0, total) without gaps and point inside the file.
  std::uint64_t expect_off = 0;
  for (std::size_t b = 0; b < index.num_blocks(); ++b) {
    const serve::BlockEntry& e = index.block(b);
    EXPECT_EQ(e.uncomp_offset, expect_off);
    EXPECT_GT(e.uncomp_size, 0u);
    EXPECT_LE(e.comp_offset + e.comp_size, f.file.size());
    expect_off += e.uncomp_size;
  }
  EXPECT_EQ(expect_off, f.input.size());
}

TEST(SeekIndex, BlockContainingIsExact) {
  const Fixture f;
  const auto source = serve::memory_source(f.file);
  const serve::SeekIndex index = serve::SeekIndex::build(*source);
  for (std::size_t b = 0; b < index.num_blocks(); ++b) {
    const serve::BlockEntry& e = index.block(b);
    EXPECT_EQ(index.block_containing(e.uncomp_offset), b);
    EXPECT_EQ(index.block_containing(e.uncomp_offset + e.uncomp_size - 1), b);
  }
  EXPECT_THROW(index.block_containing(f.input.size()), Error);
}

TEST(SeekIndex, SidecarRoundTrip) {
  const Fixture f;
  const auto source = serve::memory_source(f.file);
  const serve::SeekIndex index = serve::SeekIndex::build(*source);
  const Bytes sidecar = index.serialize();
  const serve::SeekIndex back = serve::SeekIndex::deserialize(sidecar);
  ASSERT_EQ(back.num_blocks(), index.num_blocks());
  EXPECT_EQ(back.total_uncompressed(), index.total_uncompressed());
  EXPECT_EQ(back.source_size(), index.source_size());
  EXPECT_EQ(back.is_stream(), index.is_stream());
  for (std::size_t b = 0; b < index.num_blocks(); ++b) {
    EXPECT_EQ(back.block(b).comp_offset, index.block(b).comp_offset);
    EXPECT_EQ(back.block(b).comp_size, index.block(b).comp_size);
    EXPECT_EQ(back.block(b).uncomp_offset, index.block(b).uncomp_offset);
    EXPECT_EQ(back.block(b).uncomp_size, index.block(b).uncomp_size);
  }
}

TEST(SeekIndex, SidecarFileRoundTripAndMismatchDetected) {
  const Fixture f;
  const auto source = serve::memory_source(f.file);
  const serve::SeekIndex index = serve::SeekIndex::build(*source);
  const std::string path = "/tmp/gompresso_serve_test.gmpx";
  index.save(path);
  const serve::SeekIndex loaded = serve::SeekIndex::load(path);
  EXPECT_EQ(loaded.num_blocks(), index.num_blocks());

  // Opening a *different* source with this index must be rejected.
  OpenOptions oopt;
  oopt.sidecar_path = path;
  const Fixture other(100000);
  EXPECT_THROW(gompresso::open(serve::memory_source(other.file), oopt), Error);
  // The matching source reopens without a scan and decodes correctly.
  const auto session = gompresso::open(serve::memory_source(f.file), oopt);
  const Bytes all = session->read_bytes_at(0, f.input.size());
  EXPECT_EQ(all, f.input);
  std::remove(path.c_str());
}

TEST(SeekIndex, RejectsGarbage) {
  const Bytes junk = {'N', 'O', 'P', 'E', 0, 0, 0, 0};
  const auto source = serve::memory_source(junk);
  EXPECT_THROW(serve::SeekIndex::build(*source), Error);
  EXPECT_THROW(serve::SeekIndex::deserialize(junk), Error);
}

TEST(DecodeSession, SequentialReadMatchesBatchDecode) {
  const Fixture f;
  auto session = f.session();
  EXPECT_EQ(session.size(), f.input.size());
  Bytes out;
  Bytes chunk(10000);  // deliberately not a divisor of the block size
  std::size_t n;
  while ((n = session.read(MutableByteSpan(chunk.data(), chunk.size()))) > 0) {
    out.insert(out.end(), chunk.begin(), chunk.begin() + static_cast<long>(n));
  }
  EXPECT_EQ(out, decompress_bytes(f.file));
  EXPECT_EQ(session.tell(), f.input.size());
}

TEST(DecodeSession, SeekThenReadEquivalence) {
  const Fixture f;
  auto session = f.session();
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t off = rng.next_below(static_cast<std::uint32_t>(f.input.size()));
    const std::size_t len = 1 + rng.next_below(5000);
    session.seek(off);
    Bytes got(len);
    const std::size_t n = session.read(MutableByteSpan(got.data(), got.size()));
    const std::size_t expect_n =
        std::min<std::size_t>(len, f.input.size() - static_cast<std::size_t>(off));
    ASSERT_EQ(n, expect_n) << "offset " << off;
    EXPECT_EQ(session.tell(), off + n);
    EXPECT_TRUE(std::equal(got.begin(), got.begin() + static_cast<long>(n),
                           f.input.begin() + static_cast<long>(off)))
        << "offset " << off << " len " << len;
  }
}

TEST(DecodeSession, ReadsStraddlingBlockBoundaries) {
  const Fixture f(200000, 16 * 1024);
  auto session = f.session();
  // Every boundary, +/- a few bytes around it.
  for (std::size_t b = 1; b < session.num_blocks(); ++b) {
    const std::uint64_t boundary = session.block_extent(b).uncomp_offset;
    const std::uint64_t off = boundary - 3;
    Bytes got(7);
    ASSERT_EQ(session.read_at(off, MutableByteSpan(got.data(), got.size())),
              std::min<std::size_t>(7, f.input.size() - off));
    EXPECT_TRUE(std::equal(got.begin(), got.end(),
                           f.input.begin() + static_cast<long>(off)));
  }
  // One read across many blocks at once.
  const std::size_t len = 5 * 16 * 1024 + 123;
  Bytes got(len);
  ASSERT_EQ(session.read_at(1000, MutableByteSpan(got.data(), got.size())), len);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), f.input.begin() + 1000));
}

TEST(DecodeSession, ZeroLengthAndPastEofReads) {
  const Fixture f(100000);
  auto session = f.session();
  Bytes empty;
  EXPECT_EQ(session.read(MutableByteSpan(empty.data(), 0)), 0u);
  EXPECT_EQ(session.read_at(50, MutableByteSpan(empty.data(), 0)), 0u);

  Bytes buf(100);
  // At EOF.
  session.seek(f.input.size());
  EXPECT_EQ(session.read(MutableByteSpan(buf.data(), buf.size())), 0u);
  // Far past EOF: seek is allowed, reads return 0.
  session.seek(f.input.size() + 123456);
  EXPECT_EQ(session.tell(), f.input.size() + 123456);
  EXPECT_EQ(session.read(MutableByteSpan(buf.data(), buf.size())), 0u);
  EXPECT_EQ(session.read_at(f.input.size(), MutableByteSpan(buf.data(), buf.size())),
            0u);
  // A read ending past EOF is shortened, not failed.
  const std::uint64_t off = f.input.size() - 10;
  EXPECT_EQ(session.read_at(off, MutableByteSpan(buf.data(), buf.size())), 10u);
  EXPECT_EQ(session.read_bytes_at(off, 100).size(), 10u);
  // An absurd requested length must clamp before allocating (an
  // untrusted range request is a short read, not a bad_alloc).
  EXPECT_EQ(session.read_bytes_at(off, SIZE_MAX).size(), 10u);
  EXPECT_EQ(session.read_bytes_at(f.input.size() + 1, SIZE_MAX).size(), 0u);
}

TEST(DecodeSession, RandomizedReadAtFuzzAgainstBatchSlices) {
  for (const Codec codec : {Codec::kBit, Codec::kByte}) {
    const Fixture f(250000, 16 * 1024, codec);
    const Bytes batch = decompress_bytes(f.file);
    serve::SessionOptions opt;
    opt.cache_blocks = 3;  // small cache to force evictions and re-decodes
    auto session = f.session(opt);
    const test::ServeDelta delta;
    Rng rng(codec == Codec::kBit ? 11u : 22u);
    for (int i = 0; i < 120; ++i) {
      const std::uint64_t off = rng.next_below(static_cast<std::uint32_t>(batch.size() + 50));
      const std::size_t len = rng.next_below(60000);
      const Bytes got = session.read_bytes_at(off, len);
      const std::size_t expect_n =
          off >= batch.size()
              ? 0
              : std::min<std::size_t>(len, batch.size() - static_cast<std::size_t>(off));
      ASSERT_EQ(got.size(), expect_n) << "codec " << static_cast<int>(codec)
                                      << " offset " << off << " len " << len;
      ASSERT_TRUE(std::equal(got.begin(), got.end(),
                             batch.begin() + static_cast<long>(off)))
          << "codec " << static_cast<int>(codec) << " offset " << off;
    }
    EXPECT_GT(delta("evictions"), 0u);  // the small cache really was exercised
    EXPECT_GT(delta("cache_hits"), 0u);
  }
}

TEST(DecodeSession, LruMakesRereadsCacheHits) {
  const Fixture f;
  auto session = f.session();
  const test::ServeDelta delta;
  Bytes buf(100);
  session.read_at(1000, MutableByteSpan(buf.data(), buf.size()));
  // Decodes are counted when scheduled: blocks_decoded counts completions,
  // and block 0's readahead may still be completing during the rereads.
  const auto scheduled = [&delta] {
    return delta("demand_decodes") + delta("prefetch_decodes");
  };
  const std::uint64_t decoded_once = scheduled();
  for (int i = 0; i < 10; ++i) {
    session.read_at(1000 + i, MutableByteSpan(buf.data(), buf.size()));
  }
  EXPECT_EQ(scheduled(), decoded_once);  // no re-decode
  EXPECT_GE(delta("cache_hits"), 10u);
}

TEST(DecodeSession, MemoryStaysBoundedBySmallCache) {
  // A session configured for a 2-block window and 2-block cache over a
  // 25-block file must never hold more than window x (decoded + staging)
  // + cache pooled buffers, whatever it reads.
  const Fixture f(200000, 8 * 1024);
  serve::SessionOptions opt;
  opt.max_inflight_blocks = 2;
  opt.cache_blocks = 2;
  auto session = f.session(opt);
  const test::ServeDelta delta;
  ASSERT_GE(session.num_blocks(), 25u);
  Bytes all(f.input.size());
  session.read(MutableByteSpan(all.data(), all.size()));
  EXPECT_TRUE(std::equal(all.begin(), all.end(), f.input.begin()));
  const util::BufferPool::Stats pool = session.stats().pool;
  // Each in-flight decode holds a compressed staging buffer and an
  // output buffer (2 x window, +1 slack for a demanded block), the LRU
  // holds cache_blocks more — far below the 25 blocks of the file.
  EXPECT_LE(pool.peak_outstanding, 2u * (2u + 1u) + 2u);
  EXPECT_GT(delta("evictions"), 0u);
}

TEST(DecodeSession, PrefetchPipelineDeliversIdenticalBytes) {
  const Fixture f(400000, 16 * 1024);
  serve::SessionOptions opt;
  opt.num_threads = 4;  // real workers even on a 1-vCPU host
  opt.max_inflight_blocks = 4;
  auto session = f.session(opt);
  const test::ServeDelta delta;
  Bytes out;
  Bytes chunk(30000);
  std::size_t n;
  while ((n = session.read(MutableByteSpan(chunk.data(), chunk.size()))) > 0) {
    out.insert(out.end(), chunk.begin(), chunk.begin() + static_cast<long>(n));
  }
  EXPECT_EQ(out, f.input);
  const std::uint64_t decoded = delta("blocks_decoded");
  EXPECT_EQ(decoded, session.num_blocks());
  // The first read demands block 0 (nothing is prefetched yet) — a
  // demand decode even though a pool worker runs it; from then on the
  // pipeline stays ahead and the rest are lookahead decodes.
  EXPECT_GE(delta("demand_decodes"), 1u);
  EXPECT_GT(delta("prefetch_decodes"), 0u);
  EXPECT_EQ(delta("demand_decodes") + delta("prefetch_decodes"), decoded);
}

// Readahead policy: the window is spent only on reads that continue a
// stream (block 0, or a block whose predecessor was already delivered).

TEST(DecodeSession, ScatteredReadAtsDecodeOnlyTheirOwnBlocks) {
  const Fixture f(400000, 16 * 1024);
  serve::SessionOptions opt;
  opt.num_threads = 4;
  auto session = f.session(opt);
  const test::ServeDelta delta;
  const std::size_t blocks[] = {3, 12, 7, 20};  // never a successor of a read block
  for (const std::size_t b : blocks) {
    const std::uint64_t off = session.block_extent(b).uncomp_offset + 100;
    const Bytes got = session.read_bytes_at(off, 5000);
    ASSERT_EQ(got.size(), 5000u);
    EXPECT_TRUE(std::equal(got.begin(), got.end(),
                           f.input.begin() + static_cast<long>(off)));
  }
  EXPECT_EQ(delta("prefetch_decodes"), 0u);
  EXPECT_EQ(delta("blocks_decoded"), std::size(blocks));
}

TEST(DecodeSession, ForwardSweepsKeepTheReadaheadWindow) {
  const Fixture f(400000, 16 * 1024);
  serve::SessionOptions opt;
  opt.num_threads = 4;
  {
    auto session = f.session(opt);
    const test::ServeDelta delta;
    Bytes out(f.input.size());
    for (std::size_t off = 0; off < out.size(); off += 10000) {
      const std::size_t len = std::min<std::size_t>(10000, out.size() - off);
      ASSERT_EQ(session.read_at(off, MutableByteSpan(out.data() + off, len)), len);
    }
    EXPECT_EQ(out, f.input);
    EXPECT_GT(delta("prefetch_decodes"), 0u);
  }
  auto session = f.session(opt);
  const test::ServeDelta delta;
  EXPECT_TRUE(session.verify_archive().clean());
  EXPECT_GT(delta("prefetch_decodes"), 0u);
}

TEST(DecodeSession, SeekThenReadPrefetchesFromItsSecondBlock) {
  const Fixture f(400000, 16 * 1024);
  serve::SessionOptions opt;
  opt.num_threads = 4;
  auto session = f.session(opt);
  const test::ServeDelta delta;
  const serve::BackendBlock mid = session.block_extent(10);
  const std::uint64_t start = mid.uncomp_offset + 1000;
  const std::size_t rest_of_block = static_cast<std::size_t>(mid.uncomp_size) - 1000;
  session.seek(start);
  Bytes got(rest_of_block + 40000);
  // The first read ends inside the block it seeked into: a lone demand.
  ASSERT_EQ(session.read(MutableByteSpan(got.data(), rest_of_block)), rest_of_block);
  EXPECT_EQ(delta("prefetch_decodes"), 0u);
  EXPECT_EQ(delta("blocks_decoded"), 1u);
  // Reading on into block 11 continues the stream and fills the window.
  const std::size_t more = got.size() - rest_of_block;
  ASSERT_EQ(session.read(MutableByteSpan(got.data() + rest_of_block, more)), more);
  EXPECT_TRUE(std::equal(got.begin(), got.end(),
                         f.input.begin() + static_cast<long>(start)));
  EXPECT_GT(delta("prefetch_decodes"), 0u);
}

TEST(DecodeSession, ConcurrentRandomReadsFromManyThreads) {
  const Fixture f(300000, 16 * 1024);
  serve::SessionOptions opt;
  opt.num_threads = 3;
  opt.cache_blocks = 4;
  auto session = f.session(opt);
  ThreadPool readers(4);
  std::atomic<int> failures{0};
  readers.parallel_for(64, [&](std::size_t i) {
    Rng rng(static_cast<std::uint64_t>(i) + 100);
    const std::uint64_t off = rng.next_below(static_cast<std::uint32_t>(f.input.size()));
    const std::size_t len = 1 + rng.next_below(40000);
    const Bytes got = session.read_bytes_at(off, len);
    const std::size_t expect_n =
        std::min<std::size_t>(len, f.input.size() - static_cast<std::size_t>(off));
    if (got.size() != expect_n ||
        !std::equal(got.begin(), got.end(), f.input.begin() + static_cast<long>(off))) {
      ++failures;
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(DecodeSession, AbsurdInflightWindowStillReads) {
  // A wrapped --inflight value (e.g. stoul("-1")) must not livelock the
  // scheduler's window arithmetic.
  const Fixture f(100000, 16 * 1024);
  serve::SessionOptions opt;
  opt.max_inflight_blocks = SIZE_MAX;
  opt.num_threads = 2;
  auto session = f.session(opt);
  Bytes got(5000);
  ASSERT_EQ(session.read_at(40000, MutableByteSpan(got.data(), got.size())), 5000u);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), f.input.begin() + 40000));
}

TEST(DecodeSession, ConcurrentSequentialReadsDeliverDisjointRanges) {
  // read() holds the cursor for the whole call: racing readers must
  // split the stream between them, never deliver the same bytes twice.
  const Fixture f(300000, 16 * 1024);
  auto session = f.session();
  std::atomic<std::uint64_t> delivered{0};
  ThreadPool readers(4);
  readers.parallel_for(4, [&](std::size_t) {
    Bytes chunk(7001);  // awkward size, forces many interleavings
    std::size_t n;
    while ((n = session.read(MutableByteSpan(chunk.data(), chunk.size()))) > 0) {
      delivered += n;
    }
  });
  // Duplicated delivery would push the total past the file size; a lost
  // cursor advance below it.
  EXPECT_EQ(delivered.load(), f.input.size());
  EXPECT_EQ(session.tell(), f.input.size());
}

TEST(SeekIndex, RejectsAdversarialSidecarOffsets) {
  // A crafted sidecar whose segment offset would wrap an additive bounds
  // check into acceptance must be rejected at load time.
  const Fixture f(100000);
  format::FileHeader header;
  {
    const auto source = serve::memory_source(f.file);
    const serve::SeekIndex index = serve::SeekIndex::build(*source);
    header = index.segment_header(0);
  }
  const Bytes blob = header.serialize();
  Bytes sidecar;
  put_u32le(sidecar, serve::kIndexMagic);
  sidecar.push_back(serve::kIndexVersion);
  put_varint(sidecar, f.file.size());   // source_size (matches)
  put_varint(sidecar, f.file.size());   // comp_end
  sidecar.push_back(0);                 // not a stream
  put_varint(sidecar, 1);               // one segment
  put_varint(sidecar, 0xFFFFFFFFFFFFFFFFull);  // comp_offset: wraps additively
  put_varint(sidecar, blob.size());
  sidecar.insert(sidecar.end(), blob.begin(), blob.end());
  EXPECT_THROW(serve::SeekIndex::deserialize(sidecar), Error);
}

TEST(SeekIndex, RejectsSidecarWithInconsistentBlockCount) {
  // The build path enforces num_blocks == ceil(uncompressed_size /
  // block_size) via check_payload; a sidecar skips that path (no payload
  // length in hand), and a crafted header with missing, extra, or zero
  // blocks would leave gaps/overlaps in the block table — then
  // block_containing() underflows and read_impl's in-block arithmetic
  // wraps into an out-of-bounds copy. Must be rejected at load time.
  const Fixture f(100000);
  format::FileHeader header;
  {
    const auto source = serve::memory_source(f.file);
    header = serve::SeekIndex::build(*source).segment_header(0);
  }
  const auto craft = [&](const format::FileHeader& h) {
    const Bytes blob = h.serialize();
    Bytes sidecar;
    put_u32le(sidecar, serve::kIndexMagic);
    sidecar.push_back(serve::kIndexVersion);
    put_varint(sidecar, f.file.size());  // source_size (matches)
    put_varint(sidecar, f.file.size());  // comp_end
    sidecar.push_back(0);                // not a stream
    put_varint(sidecar, 1);              // one segment
    put_varint(sidecar, 0);              // comp_offset
    put_varint(sidecar, blob.size());
    sidecar.insert(sidecar.end(), blob.begin(), blob.end());
    return sidecar;
  };
  // Sanity: the unmodified header is accepted by the same crafting.
  EXPECT_EQ(serve::SeekIndex::deserialize(craft(header)).num_blocks(),
            header.num_blocks());

  ASSERT_GT(header.num_blocks(), 1u);
  format::FileHeader fewer = header;
  fewer.block_compressed_sizes.pop_back();
  EXPECT_THROW(serve::SeekIndex::deserialize(craft(fewer)), Error);

  format::FileHeader none = header;  // zero blocks, nonzero uncompressed
  none.block_compressed_sizes.clear();
  EXPECT_THROW(serve::SeekIndex::deserialize(craft(none)), Error);

  format::FileHeader extra = header;
  extra.block_compressed_sizes.push_back(0);
  EXPECT_THROW(serve::SeekIndex::deserialize(craft(extra)), Error);

  // uncompressed_size near 2^64 must not wrap div_ceil's arithmetic into
  // accepting an empty block table (the invariant would pass vacuously).
  format::FileHeader wrap = header;
  wrap.uncompressed_size = ~0ull;
  wrap.block_size = 2;
  wrap.block_compressed_sizes.clear();
  EXPECT_THROW(serve::SeekIndex::deserialize(craft(wrap)), Error);
}

TEST(DecodeSession, GmpsStreamSessionsSpanSegments) {
  const Bytes input = datagen::matrix(500000);
  std::istringstream in(std::string(input.begin(), input.end()));
  std::ostringstream compressed;
  CompressOptions opt;
  opt.block_size = 32 * 1024;
  compress_stream(in, compressed, opt, 100000);  // several segments
  const std::string blob = compressed.str();
  const Bytes file(blob.begin(), blob.end());

  auto session = test::gmpz_session(serve::memory_source(file));
  EXPECT_TRUE(session.backend().seek_index()->is_stream());
  EXPECT_GT(session.backend().seek_index()->num_segments(), 1u);
  EXPECT_EQ(session.size(), input.size());
  // A read spanning a segment boundary.
  const std::uint64_t seg1_end =
      session.backend().seek_index()->segment_header(0).uncompressed_size;
  Bytes got(2000);
  ASSERT_EQ(session.read_at(seg1_end - 1000, MutableByteSpan(got.data(), got.size())),
            2000u);
  EXPECT_TRUE(std::equal(got.begin(), got.end(),
                         input.begin() + static_cast<long>(seg1_end - 1000)));
  // Whole-stream equality.
  const Bytes all = session.read_bytes_at(0, input.size());
  EXPECT_EQ(all, input);
}

TEST(DecodeSession, CorruptBlockSurfacesOnRead) {
  Fixture f(100000, 16 * 1024);
  // Flip a byte well inside some block payload (past header + CRC).
  f.file[f.file.size() / 2] ^= 0x40;
  auto session = f.session();
  Bytes buf(1000);
  EXPECT_THROW(
      {
        for (std::uint64_t off = 0; off < f.input.size(); off += 16 * 1024) {
          session.read_at(off, MutableByteSpan(buf.data(), buf.size()));
        }
      },
      Error);
}

TEST(DecodeSession, TransientSourceFailureIsRetriable) {
  // A failed decode is delivered to the reader, not cached: the next
  // read of the same block retries it, so a transient I/O error does
  // not poison the session for its lifetime. Retry is disabled so the
  // single injected fault surfaces instead of being absorbed.
  const Fixture f(100000, 16 * 1024);
  auto flaky = std::make_unique<serve::FaultInjectingByteSource>(
      serve::memory_source(ByteSpan(f.file.data(), f.file.size())));
  serve::FaultInjectingByteSource* handle = flaky.get();
  serve::SessionOptions opt;
  opt.num_threads = 1;  // deterministic: decode inline on the reader
  opt.retry.max_attempts = 1;
  DecodeSession session = test::gmpz_session(std::move(flaky), opt);
  const test::ServeDelta delta;

  handle->inject(serve::FaultSpec::transient_any(1));  // arm after the index scan
  Bytes buf(1000);
  EXPECT_THROW(session.read_at(0, MutableByteSpan(buf.data(), buf.size())), IoError);
  // The same range succeeds once the fault clears.
  ASSERT_EQ(session.read_at(0, MutableByteSpan(buf.data(), buf.size())), 1000u);
  EXPECT_TRUE(std::equal(buf.begin(), buf.end(), f.input.begin()));
  EXPECT_EQ(delta("transient_errors"), 1u);
}

TEST(DecodeSession, StalePrefetchFailureRetriedTransparently) {
  // A lookahead decode the reader never observed fails transiently; by
  // the time the reader reaches that block the fault has cleared, so the
  // stale kFailed slot gets one transparent retry instead of aborting
  // the read. Backoff retry is disabled so the injected fault reaches
  // the slot instead of being absorbed inside the decode task.
  const Fixture f(100000, 16 * 1024);
  auto flaky = std::make_unique<serve::FaultInjectingByteSource>(
      serve::memory_source(ByteSpan(f.file.data(), f.file.size())));
  serve::FaultInjectingByteSource* handle = flaky.get();
  serve::SessionOptions opt;
  opt.num_threads = 2;
  opt.max_inflight_blocks = 2;
  opt.retry.max_attempts = 1;
  DecodeSession session = test::gmpz_session(std::move(flaky), opt);
  const test::ServeDelta delta;

  // Fail exactly the prefetch read of block 1, scheduled as lookahead
  // by the first read of block 0.
  handle->inject(
      serve::FaultSpec::transient_at(session.block_extent(1).comp_offset, 1));
  Bytes buf(1000);
  ASSERT_EQ(session.read_at(0, MutableByteSpan(buf.data(), buf.size())), 1000u);
  EXPECT_TRUE(std::equal(buf.begin(), buf.end(), f.input.begin()));

  // Let the failed lookahead publish its slot before touching block 1
  // (if the reader instead catches it in-flight and waits, it observes
  // the failure directly, which is the delivered-error path, not this
  // test's subject). decode_failures is bumped when the slot publishes,
  // so polling it is race-free.
  for (int i = 0; i < 2000 && delta("decode_failures") == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(delta("decode_failures"), 1u);

  const std::uint64_t off = session.block_extent(1).uncomp_offset;
  Bytes got(1000);
  ASSERT_EQ(session.read_at(off, MutableByteSpan(got.data(), got.size())), 1000u);
  EXPECT_TRUE(std::equal(got.begin(), got.end(),
                         f.input.begin() + static_cast<long>(off)));
}

TEST(DecodeSession, TruncatedFileRejectedAtOpen) {
  const Fixture f(100000);
  const Bytes truncated(f.file.begin(), f.file.end() - 5);
  EXPECT_THROW(gompresso::open(serve::memory_source(truncated)), Error);
}

TEST(DecodeSession, EmptyFileServesZeroBytes) {
  const Bytes file = compress(Bytes{}, {});
  auto session = test::gmpz_session(serve::memory_source(file));
  EXPECT_EQ(session.size(), 0u);
  Bytes buf(10);
  EXPECT_EQ(session.read(MutableByteSpan(buf.data(), buf.size())), 0u);
  EXPECT_EQ(session.read_bytes_at(0, 10).size(), 0u);
}

TEST(DecodeSession, FileSourceMatchesMemorySource) {
  const Fixture f;
  const std::string path = "/tmp/gompresso_serve_file_test.gmp";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(f.file.data()),
              static_cast<std::streamsize>(f.file.size()));
  }
  const auto session = gompresso::open(path);
  const Bytes all = session->read_bytes_at(0, f.input.size());
  EXPECT_EQ(all, f.input);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gompresso
