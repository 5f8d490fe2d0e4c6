// The gzip ingest backend: rapidgzip-style parallel decode behind
// gompresso::open().
//
// Coverage map:
//   - golden corpus: real `gzip` output at levels 1/6/9 over text,
//     incompressible, empty, and tiny inputs, plus multi-member
//     concatenation, byte-compared against the original (GTEST_SKIP
//     when no gzip binary is on PATH — the in-process stored-block
//     writer below keeps structural coverage hermetic);
//   - adversarial headers: every FLG combination, reserved bits,
//     truncations at every prefix, lying ISIZE/CRC32, oversized FEXTRA;
//   - mutation fuzz within the repo's GOMPRESSO_FUZZ_TRIALS budget:
//     decode of a damaged stream throws a typed Error or succeeds —
//     never crashes, never hangs;
//   - chaos soak: a gzip session over FaultInjectingByteSource absorbs
//     transient-only plans byte-exactly;
//   - the "GZIX" sidecar: reopen loads it instead of re-scanning
//     (counter-asserted) and a wrong-flavor sidecar is rejected;
//   - parallel == sequential: the speculative pipeline build and the
//     pure sequential build produce identical bytes and sidecars, and
//     the parallel build checks member trailers chained across cells;
//   - stage reconciliation: a traced parallel build records one stitch
//     per indexed chunk and one patch+CRC per speculative chunk;
//   - the pipe: gzip on a non-seekable stream is buffered and decoded
//     through the same open() + DecodeSession path, with the same typed
//     errors (truncation, reserved FLG bits, lying trailers, trailing
//     garbage) and the same bytes at 1 and 4 threads.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/gompresso.hpp"
#include "datagen/datasets.hpp"
#include "format/header.hpp"
#include "format/sniff.hpp"
#include "fuzz_budget.hpp"
#include "gmpz_session.hpp"
#include "ingest/gzip_format.hpp"
#include "ingest/gzip_index.hpp"
#include "ingest/inflate.hpp"
#include "sequential_buf.hpp"
#include "serve/fault_source.hpp"
#include "sidecar_fuzz.hpp"
#include "util/crc32.hpp"
#include "util/varint.hpp"
#include "util/rng.hpp"

namespace gompresso {
namespace {

// ------------------------------------------------------------ helpers

/// In-process gzip writer using stored (BTYPE 0) DEFLATE blocks: pure
/// framing, so header/trailer structure can be fuzzed hermetically
/// without a compressor. `flags` may request FTEXT/FHCRC/FEXTRA/FNAME/
/// FCOMMENT; the optional fields are filled with fixed contents.
Bytes gzip_store_member(ByteSpan data, std::uint8_t flags = 0,
                        std::size_t extra_len = 6) {
  Bytes out;
  out.push_back(0x1F);
  out.push_back(0x8B);
  out.push_back(8);  // CM = deflate
  out.push_back(flags);
  for (int i = 0; i < 4; ++i) out.push_back(0);  // MTIME
  out.push_back(0);                              // XFL
  out.push_back(255);                            // OS = unknown
  if (flags & ingest::kGzipFlagExtra) {
    out.push_back(static_cast<std::uint8_t>(extra_len & 0xFF));
    out.push_back(static_cast<std::uint8_t>(extra_len >> 8));
    for (std::size_t i = 0; i < extra_len; ++i) {
      out.push_back(static_cast<std::uint8_t>('x'));
    }
  }
  if (flags & ingest::kGzipFlagName) {
    for (const char c : std::string("file.bin")) {
      out.push_back(static_cast<std::uint8_t>(c));
    }
    out.push_back(0);
  }
  if (flags & ingest::kGzipFlagComment) {
    for (const char c : std::string("a comment")) {
      out.push_back(static_cast<std::uint8_t>(c));
    }
    out.push_back(0);
  }
  if (flags & ingest::kGzipFlagHcrc) {
    const std::uint32_t crc = crc32(ByteSpan(out.data(), out.size()));
    out.push_back(static_cast<std::uint8_t>(crc & 0xFF));
    out.push_back(static_cast<std::uint8_t>((crc >> 8) & 0xFF));
  }

  // Stored blocks: 3-bit header (BFINAL, BTYPE=00), pad to byte, then
  // LEN/NLEN + raw bytes. An empty input is one final LEN=0 block.
  std::size_t pos = 0;
  do {
    const std::size_t n = std::min<std::size_t>(data.size() - pos, 65535);
    const bool final_block = pos + n == data.size();
    out.push_back(final_block ? 1 : 0);  // header bits land in one byte
    out.push_back(static_cast<std::uint8_t>(n & 0xFF));
    out.push_back(static_cast<std::uint8_t>(n >> 8));
    out.push_back(static_cast<std::uint8_t>(~n & 0xFF));
    out.push_back(static_cast<std::uint8_t>((~n >> 8) & 0xFF));
    out.insert(out.end(), data.begin() + static_cast<long>(pos),
               data.begin() + static_cast<long>(pos + n));
    pos += n;
  } while (pos < data.size());

  const std::uint32_t crc = crc32(data);
  const std::uint32_t isize = static_cast<std::uint32_t>(data.size());
  for (const std::uint32_t v : {crc, isize}) {
    out.push_back(static_cast<std::uint8_t>(v & 0xFF));
    out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
    out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
    out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xFF));
  }
  return out;
}

/// In-process writer of a highly compressible gzip member: its output
/// is `pairs` x (`kAnchorZeros` zeros in a stored block, then a
/// fixed-Huffman block of `matches` length-258 distance-1 copies), all
/// zeros. Each copy costs 13 bits for 258 bytes (about 160x), and the
/// stored blocks are the boundaries the speculative scan can anchor on
/// (it never accepts a fixed block).
constexpr std::size_t kAnchorZeros = 16;

Bytes gzip_zero_runs_member(std::size_t pairs, std::size_t matches) {
  Bytes out = {0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 255};
  std::uint32_t acc = 0;
  int nbits = 0;
  const auto put = [&](std::uint32_t v, int bits) {  // LSB first
    for (int i = 0; i < bits; ++i) {
      acc |= ((v >> i) & 1u) << nbits;
      if (++nbits == 8) {
        out.push_back(static_cast<std::uint8_t>(acc));
        acc = 0;
        nbits = 0;
      }
    }
  };
  const auto code = [&](std::uint32_t c, int bits) {  // Huffman: MSB first
    for (int i = bits - 1; i >= 0; --i) put((c >> i) & 1u, 1);
  };
  const auto align = [&] {
    if (nbits != 0) put(0, 8 - nbits);
  };
  for (std::size_t p = 0; p < pairs; ++p) {
    put(0, 1);  // BFINAL = 0
    put(0, 2);  // BTYPE = stored
    align();
    put(kAnchorZeros, 16);
    put(~kAnchorZeros & 0xFFFF, 16);
    for (std::size_t i = 0; i < kAnchorZeros; ++i) put(0, 8);
    put(p + 1 == pairs ? 1 : 0, 1);
    put(1, 2);  // BTYPE = fixed
    for (std::size_t m = 0; m < matches; ++m) {
      code(0xC5, 8);  // length code 285 = 258 bytes
      code(0, 5);     // distance code 0 = distance 1
    }
    code(0, 7);  // end of block
  }
  align();
  const Bytes zeros(pairs * (kAnchorZeros + 258 * matches), 0);
  for (const std::uint32_t v : {crc32(zeros), static_cast<std::uint32_t>(zeros.size())}) {
    put(v, 32);
  }
  return out;
}

/// Decodes a whole in-memory gzip stream through gompresso::open().
Bytes decode_gzip(ByteSpan file, std::size_t threads = 2,
                  std::size_t chunk_size = 64 * 1024) {
  OpenOptions opt;
  opt.session.num_threads = threads;
  opt.gzip.chunk_size = chunk_size;
  auto session = open(serve::memory_source(file), opt);
  Bytes out(session->size());
  if (!out.empty()) {
    EXPECT_EQ(session->read_at(0, MutableByteSpan(out.data(), out.size())),
              out.size());
  }
  return out;
}

std::string temp_path(const char* tag) {
  return "/tmp/gomp_gz_" + std::to_string(getpid()) + "_" + tag;
}

void write_file(const std::string& path, ByteSpan data) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good());
}

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

bool have_gzip_binary() {
  return std::system("gzip --version >/dev/null 2>&1") == 0;
}

/// One member compressed by the system `gzip -6`.
Bytes system_gzip(const Bytes& input, const char* tag) {
  const std::string raw = temp_path(tag);
  write_file(raw, ByteSpan(input.data(), input.size()));
  const std::string gz = raw + ".gz";
  EXPECT_EQ(std::system(("gzip -6 -n -c " + raw + " > " + gz).c_str()), 0);
  Bytes out = read_file(gz);
  std::remove(raw.c_str());
  std::remove(gz.c_str());
  return out;
}

using testing::SequentialBuf;

// ------------------------------------------------------------- sniffer

TEST(Sniff, ClassifiesAllContainers) {
  const std::uint8_t gz[] = {0x1F, 0x8B, 0x08, 0x00};
  EXPECT_EQ(format::sniff_container(ByteSpan(gz, 4)),
            format::ContainerKind::kGzip);
  EXPECT_EQ(format::sniff_container(ByteSpan(gz, 3)),
            format::ContainerKind::kGzip);
  const std::uint8_t not_deflate[] = {0x1F, 0x8B, 0x07, 0x00};
  EXPECT_EQ(format::sniff_container(ByteSpan(not_deflate, 4)),
            format::ContainerKind::kUnknown);
  Bytes gmpz;
  put_u32le(gmpz, format::kMagic);
  EXPECT_EQ(format::sniff_container(ByteSpan(gmpz.data(), gmpz.size())),
            format::ContainerKind::kGmpz);
  Bytes gmps;
  put_u32le(gmps, format::kGmpsMagic);
  EXPECT_EQ(format::sniff_container(ByteSpan(gmps.data(), gmps.size())),
            format::ContainerKind::kGmps);
  EXPECT_EQ(format::sniff_container(ByteSpan(gz, 2)),
            format::ContainerKind::kUnknown);
}

// ------------------------------------------------- stored-block writer

TEST(IngestGzip, StoredMembersRoundTrip) {
  for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                 std::size_t{65535}, std::size_t{200000}}) {
    const Bytes input = datagen::wikipedia(std::max<std::size_t>(size, 1));
    const ByteSpan data(input.data(), size);
    const Bytes file = gzip_store_member(data);
    const Bytes out = decode_gzip(ByteSpan(file.data(), file.size()));
    ASSERT_EQ(out.size(), size);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin()));
  }
}

TEST(IngestGzip, EveryHeaderFlagCombinationParses) {
  const Bytes input = datagen::wikipedia(5000);
  const ByteSpan data(input.data(), input.size());
  for (std::uint8_t flags = 0; flags < 32; ++flags) {
    const Bytes file = gzip_store_member(data, flags);
    const Bytes out = decode_gzip(ByteSpan(file.data(), file.size()));
    ASSERT_EQ(out.size(), input.size()) << "flags=" << int(flags);
    EXPECT_EQ(out, input) << "flags=" << int(flags);
  }
}

TEST(IngestGzip, MultiMemberStreamsConcatenate) {
  const Bytes a = datagen::wikipedia(70000);
  const Bytes b = datagen::random_bytes(50000, 7);
  Bytes file = gzip_store_member(ByteSpan(a.data(), a.size()),
                                 ingest::kGzipFlagName);
  const Bytes second = gzip_store_member(ByteSpan(b.data(), b.size()));
  file.insert(file.end(), second.begin(), second.end());
  // An empty trailing member must also be consumed.
  const Bytes third = gzip_store_member(ByteSpan());
  file.insert(file.end(), third.begin(), third.end());

  const Bytes out = decode_gzip(ByteSpan(file.data(), file.size()));
  ASSERT_EQ(out.size(), a.size() + b.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), out.begin()));
  EXPECT_TRUE(std::equal(b.begin(), b.end(),
                         out.begin() + static_cast<long>(a.size())));
}

// --------------------------------------------------- adversarial input

TEST(IngestGzip, ReservedFlagBitsAreAFormatError) {
  const Bytes input = datagen::wikipedia(100);
  Bytes file = gzip_store_member(ByteSpan(input.data(), input.size()));
  file[3] |= ingest::kGzipFlagReserved;
  EXPECT_THROW(decode_gzip(ByteSpan(file.data(), file.size())), FormatError);
  EXPECT_THROW(testing::decompress_pipe(ByteSpan(file.data(), file.size())),
               FormatError);
}

TEST(IngestGzip, HeaderCrc16MismatchIsCorruption) {
  const Bytes input = datagen::wikipedia(100);
  Bytes file =
      gzip_store_member(ByteSpan(input.data(), input.size()), ingest::kGzipFlagHcrc);
  file[10] ^= 0xFF;  // flip an FHCRC byte (header is 10 fixed + 2 crc)
  EXPECT_THROW(decode_gzip(ByteSpan(file.data(), file.size())), Error);
}

TEST(IngestGzip, LyingTrailerIsCorruption) {
  // Both inputs check every member's trailer through the one checker,
  // verify_member_trailers in the index build: the seekable path, and
  // the pipe, which indexes its buffered bytes the same way. In the
  // two-member case the lie sits behind a first member of more than one
  // kStreamCopyChunk, which spans several index cells on either path.
  const Bytes small = datagen::wikipedia(3000);
  const Bytes large = datagen::wikipedia(kStreamCopyChunk + 300000);
  const Bytes one = gzip_store_member(ByteSpan(small.data(), small.size()));
  Bytes two = gzip_store_member(ByteSpan(large.data(), large.size()));
  two.insert(two.end(), one.begin(), one.end());
  Bytes both = large;
  both.insert(both.end(), small.begin(), small.end());
  ASSERT_EQ(testing::decompress_pipe(ByteSpan(two.data(), two.size())), both);

  for (const Bytes& good : {one, two}) {
    for (const std::size_t back : {std::size_t{2}, std::size_t{6}}) {  // ISIZE, CRC32
      Bytes bad = good;
      bad[bad.size() - back] ^= 0x40;
      const ByteSpan span(bad.data(), bad.size());
      EXPECT_THROW(decode_gzip(span), CorruptionError) << "seekable, byte -" << back;
      EXPECT_THROW(testing::decompress_pipe(span), CorruptionError)
          << "pipe, byte -" << back;
    }
  }
}

TEST(IngestGzip, TruncationAtEveryPrefixThrows) {
  const Bytes input = datagen::wikipedia(2000);
  const Bytes file = gzip_store_member(
      ByteSpan(input.data(), input.size()),
      ingest::kGzipFlagExtra | ingest::kGzipFlagName | ingest::kGzipFlagHcrc);
  for (std::size_t len = 0; len < file.size(); ++len) {
    EXPECT_THROW(decode_gzip(ByteSpan(file.data(), len)), Error)
        << "prefix " << len;
    EXPECT_THROW(testing::decompress_pipe(ByteSpan(file.data(), len)), Error)
        << "pipe, prefix " << len;
  }
  EXPECT_EQ(decode_gzip(ByteSpan(file.data(), file.size())), input);
  EXPECT_EQ(testing::decompress_pipe(ByteSpan(file.data(), file.size())), input);
}

TEST(IngestGzip, TrailingGarbageIsCorruption) {
  const Bytes input = datagen::wikipedia(5000);
  Bytes file = gzip_store_member(ByteSpan(input.data(), input.size()));
  // Bytes after the last member that are not another gzip header.
  for (const std::uint8_t b : {0x00, 0x1F, 0x42, 0xFF}) file.push_back(b);
  const ByteSpan span(file.data(), file.size());
  EXPECT_THROW(decode_gzip(span), CorruptionError);
  EXPECT_THROW(testing::decompress_pipe(span), CorruptionError);
}

TEST(IngestGzip, OversizedFextraIsTruncation) {
  const Bytes input = datagen::wikipedia(100);
  Bytes file = gzip_store_member(ByteSpan(input.data(), input.size()),
                                 ingest::kGzipFlagExtra);
  // XLEN claims far more than the stream holds.
  file[10] = 0xFF;
  file[11] = 0xFF;
  EXPECT_THROW(decode_gzip(ByteSpan(file.data(), file.size())), Error);
}

TEST(IngestGzip, MutationFuzzNeverCrashes) {
  const Bytes input = datagen::wikipedia(60000);
  Bytes file = gzip_store_member(ByteSpan(input.data(), input.size()));
  const int trials = testing::fuzz_trials(60);
  Rng rng(20260809);
  for (int t = 0; t < trials; ++t) {
    const std::size_t at = static_cast<std::size_t>(
        rng.next_u64() % static_cast<std::uint64_t>(file.size()));
    const std::uint8_t old = file[at];
    file[at] ^= static_cast<std::uint8_t>(1u << (rng.next_u64() % 8));
    try {
      // Any typed Error is acceptable; silent success is too (a flip in
      // stored payload decodes "wrong" bytes but the trailer CRC check
      // catches it — flips in FNAME/MTIME are genuinely harmless).
      (void)decode_gzip(ByteSpan(file.data(), file.size()));
    } catch (const Error&) {
    }
    file[at] = old;
  }
}

// -------------------------------------------------------- golden gzip

TEST(IngestGzip, GoldenCorpusMatchesRealGzip) {
  if (!have_gzip_binary()) GTEST_SKIP() << "no gzip binary on PATH";
  struct Case {
    const char* tag;
    Bytes input;
  };
  std::vector<Case> cases;
  cases.push_back({"text", datagen::wikipedia(1 << 20)});
  cases.push_back({"random", datagen::random_bytes(300000, 9)});
  cases.push_back({"empty", Bytes()});
  cases.push_back({"tiny", Bytes{'h', 'i'}});

  for (const Case& c : cases) {
    const std::string raw = temp_path(c.tag);
    write_file(raw, ByteSpan(c.input.data(), c.input.size()));
    for (const int level : {1, 6, 9}) {
      const std::string gz = raw + "." + std::to_string(level) + ".gz";
      const std::string cmd =
          "gzip -" + std::to_string(level) + " -c " + raw + " > " + gz;
      ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
      const Bytes file = read_file(gz);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        const Bytes out =
            decode_gzip(ByteSpan(file.data(), file.size()), threads);
        EXPECT_EQ(out, c.input)
            << c.tag << " level " << level << " threads " << threads;
      }
      std::remove(gz.c_str());
    }
    std::remove(raw.c_str());
  }
}

TEST(IngestGzip, GoldenMultiMemberConcatenation) {
  if (!have_gzip_binary()) GTEST_SKIP() << "no gzip binary on PATH";
  const Bytes a = datagen::wikipedia(400000);
  const Bytes b = datagen::matrix(200000);
  const std::string pa = temp_path("cat_a"), pb = temp_path("cat_b");
  write_file(pa, ByteSpan(a.data(), a.size()));
  write_file(pb, ByteSpan(b.data(), b.size()));
  const std::string gz = temp_path("cat.gz");
  ASSERT_EQ(std::system(("gzip -c " + pa + " > " + gz + " && gzip -9 -c " + pb +
                         " >> " + gz)
                            .c_str()),
            0);
  const Bytes file = read_file(gz);
  const Bytes out = decode_gzip(ByteSpan(file.data(), file.size()));
  ASSERT_EQ(out.size(), a.size() + b.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), out.begin()));
  EXPECT_TRUE(std::equal(b.begin(), b.end(),
                         out.begin() + static_cast<long>(a.size())));
  std::remove(pa.c_str());
  std::remove(pb.c_str());
  std::remove(gz.c_str());
}

// -------------------------------------------- parallel vs sequential

TEST(IngestGzip, ParallelBuildMatchesSequential) {
  if (!have_gzip_binary()) GTEST_SKIP() << "no gzip binary on PATH";
  const Bytes input = datagen::wikipedia(2 << 20);
  const std::string raw = temp_path("par");
  write_file(raw, ByteSpan(input.data(), input.size()));
  const std::string gz = raw + ".gz";
  ASSERT_EQ(std::system(("gzip -c " + raw + " > " + gz).c_str()), 0);
  const Bytes file = read_file(gz);

  ThreadPool pool(4);
  ingest::GzipIndexOptions seq, par;
  seq.chunk_size = par.chunk_size = 96 * 1024;
  par.pool = &pool;
  auto ssrc = serve::memory_source(ByteSpan(file.data(), file.size()));
  auto psrc = serve::memory_source(ByteSpan(file.data(), file.size()));
  const ingest::GzipIndex si = ingest::GzipIndex::build(*ssrc, seq);
  const ingest::GzipIndex pi = ingest::GzipIndex::build(*psrc, par);

  ASSERT_EQ(si.total_uncompressed(), input.size());
  ASSERT_EQ(pi.total_uncompressed(), input.size());
  // The pipeline build must land on the same chunk geometry the sequential
  // build finds — speculation changes the schedule, not the result.
  ASSERT_EQ(pi.num_chunks(), si.num_chunks());
  for (std::size_t i = 0; i < si.num_chunks(); ++i) {
    EXPECT_EQ(pi.chunk(i).start_bit, si.chunk(i).start_bit);
    EXPECT_EQ(pi.chunk(i).end_bit, si.chunk(i).end_bit);
    EXPECT_EQ(pi.chunk(i).uncomp_offset, si.chunk(i).uncomp_offset);
  }

  const Bytes out = decode_gzip(ByteSpan(file.data(), file.size()), 4, 96 * 1024);
  EXPECT_EQ(out, input);
  std::remove(raw.c_str());
  std::remove(gz.c_str());
}

TEST(IngestGzip, ParallelBuildChecksMemberTrailersAcrossCells) {
  // Three real members whose boundaries fall inside grid cells, so the
  // middle member's CRC32 is chained from segments that different
  // tasks checksummed. Only stored single-cell members reached the
  // trailer check in LyingTrailerIsCorruption.
  if (!have_gzip_binary()) GTEST_SKIP() << "no gzip binary on PATH";
  constexpr std::size_t kPitch = 64 * 1024;
  const Bytes a = datagen::wikipedia(300000);
  const Bytes b = datagen::wikipedia(500000);
  const Bytes c = datagen::matrix(200000);
  Bytes file;
  std::vector<std::size_t> member_end;
  for (const Bytes* m : {&a, &b, &c}) {
    const Bytes gz = system_gzip(*m, "member");
    file.insert(file.end(), gz.begin(), gz.end());
    member_end.push_back(file.size());
  }
  for (std::size_t k = 0; k + 1 < member_end.size(); ++k) {
    const std::size_t in_cell = member_end[k] % kPitch;
    EXPECT_TRUE(in_cell > 4096 && in_cell < kPitch - 4096)
        << "member " << k << " ends at " << member_end[k];
  }
  EXPECT_GT(member_end[1] - member_end[0], 2 * kPitch);  // spans cells
  Bytes input = a;
  input.insert(input.end(), b.begin(), b.end());
  input.insert(input.end(), c.begin(), c.end());

  EXPECT_EQ(decode_gzip(ByteSpan(file.data(), file.size()), 4, kPitch), input);
  const std::size_t trailer = member_end[1] - ingest::kGzipTrailerBytes;
  for (const std::size_t at : {trailer, trailer + 4}) {  // CRC32, then ISIZE
    Bytes bad = file;
    bad[at] ^= 0x01;
    EXPECT_THROW(decode_gzip(ByteSpan(bad.data(), bad.size()), 4, kPitch),
                 CorruptionError)
        << "flipped trailer byte " << at - trailer;
  }

  // The schedule must not change the sidecar: 1 and 4 threads agree
  // byte for byte.
  ThreadPool pool(4);
  ingest::GzipIndexOptions seq, par;
  seq.chunk_size = par.chunk_size = kPitch;
  par.pool = &pool;
  auto ssrc = serve::memory_source(ByteSpan(file.data(), file.size()));
  auto psrc = serve::memory_source(ByteSpan(file.data(), file.size()));
  const ingest::GzipIndex si = ingest::GzipIndex::build(*ssrc, seq);
  const auto patch_samples = [] {
    const obs::MetricsSnapshot snap = metrics_snapshot();
    const obs::MetricValue* m = snap.find("ingest.patch_crc_us");
    return m != nullptr ? m->hist.count() : 0;
  };
  const std::uint64_t patched_before = patch_samples();
  const ingest::GzipIndex pi = ingest::GzipIndex::build(*psrc, par);
  // Most cells were speculated, so the trailers above were checked from
  // segments the pooled patch tasks checksummed.
  EXPECT_GE(patch_samples() - patched_before, pi.num_chunks() / 2);
  EXPECT_EQ(si.num_members(), 3u);
  EXPECT_GT(pi.num_chunks(), 4u);
  EXPECT_EQ(pi.serialize(), si.serialize());
}

TEST(IngestGzip, ChunkOutputIsCappedByThePitch) {
  // About 130x compressible: one 4 KiB cell decodes to about 530 KB.
  // Every chunk must stop at the first block boundary past
  // kChunkOutputPerPitch x pitch, on the speculative and the sequential
  // build alike, with member trailers chained across the extra runs.
  constexpr std::size_t kPitch = 4096;
  // A fixed block of m copies is 13m + 10 bits, so m = 52..59 starts the
  // stored anchors at every bit of a byte (6, 3, 0, 5, 2, 7, 4, 1). The
  // zero bits of the end-of-block code before an anchor let the scan
  // accept a stored header a bit or two early; it decodes the same
  // block, so the stitch must count it as a hit at every anchor bit.
  for (std::size_t matches = 52; matches <= 59; ++matches) {
    SCOPED_TRACE("matches " + std::to_string(matches));
    const Bytes file = gzip_zero_runs_member(/*pairs=*/300, matches);
    const std::size_t total = 300 * (kAnchorZeros + 258 * matches);
    ASSERT_GT(file.size(), 6 * kPitch);

    ThreadPool pool(4);
    ingest::GzipIndexOptions seq, par;
    seq.chunk_size = par.chunk_size = kPitch;
    par.pool = &pool;
    auto ssrc = serve::memory_source(ByteSpan(file.data(), file.size()));
    auto psrc = serve::memory_source(ByteSpan(file.data(), file.size()));
    const ingest::GzipIndex si = ingest::GzipIndex::build(*ssrc, seq);
    const auto patch_samples = [] {
      const obs::MetricsSnapshot snap = metrics_snapshot();
      const obs::MetricValue* m = snap.find("ingest.patch_crc_us");
      return m != nullptr ? m->hist.count() : 0;
    };
    const std::uint64_t patched_before = patch_samples();
    const ingest::GzipIndex pi = ingest::GzipIndex::build(*psrc, par);
    // Some cells were speculative hits whose run stopped at the cap, the
    // rest of the cell then decoded in order.
    EXPECT_GT(patch_samples(), patched_before);
    EXPECT_EQ(pi.serialize(), si.serialize());

    ASSERT_EQ(si.total_uncompressed(), total);
    const std::uint64_t cap = ingest::kChunkOutputPerPitch * kPitch;
    EXPECT_GT(si.num_chunks(), 4 * div_ceil<std::size_t>(file.size(), kPitch));
    for (std::size_t i = 0; i < si.num_chunks(); ++i) {
      EXPECT_LE(si.chunk(i).uncomp_size, cap + kAnchorZeros + 258 * matches)
          << "chunk " << i;
    }

    const Bytes zeros(total, 0);
    EXPECT_EQ(decode_gzip(ByteSpan(file.data(), file.size()), 4, kPitch), zeros);
    EXPECT_EQ(decode_gzip(ByteSpan(file.data(), file.size()), 1, kPitch), zeros);
    EXPECT_EQ(testing::decompress_pipe(ByteSpan(file.data(), file.size())), zeros);
    for (const std::size_t back : {std::size_t{2}, std::size_t{6}}) {  // ISIZE, CRC32
      Bytes bad = file;
      bad[bad.size() - back] ^= 0x40;
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        EXPECT_THROW(decode_gzip(ByteSpan(bad.data(), bad.size()), threads, kPitch),
                     CorruptionError)
            << "byte -" << back << ", " << threads << " threads";
      }
    }
  }
}

TEST(IngestGzip, ParallelBuildStagesReconcileWithChunks) {
  // A traced parallel build: the serial stitch runs once per indexed
  // chunk, and the pooled patch+CRC once per chunk that came out of a
  // speculative marker decode — every chunk except the stream-start
  // cell (decoded as bytes) and in-order fallbacks.
  if (!have_gzip_binary()) GTEST_SKIP() << "no gzip binary on PATH";
  const Bytes input = datagen::wikipedia(2 << 20);
  const Bytes file = system_gzip(input, "stages");

  ThreadPool pool(4);
  ingest::GzipIndexOptions gopt;
  gopt.chunk_size = 64 * 1024;
  gopt.pool = &pool;
  auto src = serve::memory_source(ByteSpan(file.data(), file.size()));

  const obs::MetricsSnapshot before = metrics_snapshot();
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.start();
  const ingest::GzipIndex index = ingest::GzipIndex::build(*src, gopt);
  tracer.stop();
  const obs::MetricsSnapshot after = metrics_snapshot();

  const auto delta = [&](const char* name) {
    return after.counter(name) - before.counter(name);
  };
  const auto samples = [&](const char* name) {
    const obs::MetricValue* a = after.find(name);
    const obs::MetricValue* b = before.find(name);
    EXPECT_NE(a, nullptr) << name;
    if (a == nullptr) return std::uint64_t{0};
    return a->hist.count() - (b != nullptr ? b->hist.count() : 0);
  };
  const std::uint64_t chunks = delta("ingest.chunks_indexed");
  const std::uint64_t fallbacks = delta("ingest.chunk_fallbacks");
  ASSERT_EQ(chunks, index.num_chunks());
  ASSERT_GT(chunks, 8u);
  EXPECT_EQ(samples("ingest.stitch_us"), chunks);
  EXPECT_EQ(samples("ingest.patch_crc_us"), chunks - 1 - fallbacks);
  EXPECT_EQ(samples("ingest.fallback_us"), fallbacks);
  EXPECT_GE(samples("ingest.scan_us"), chunks - 1);
  EXPECT_GE(samples("ingest.marker_decode_us"), chunks);

  std::uint64_t stitch_spans = 0, patch_spans = 0;
  for (const obs::TraceEvent& ev : tracer.collect()) {
    const std::string_view name(ev.name);
    if (name == "stitch") ++stitch_spans;
    if (name == "patch_crc") ++patch_spans;
  }
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(stitch_spans, chunks);
  EXPECT_EQ(patch_spans, chunks - 1 - fallbacks);
}

// ------------------------------------------------------------ sidecar

TEST(IngestGzip, SidecarReopenSkipsTheScan) {
  const Bytes input = datagen::wikipedia(500000);
  const Bytes file = gzip_store_member(ByteSpan(input.data(), input.size()));
  const std::string gz = temp_path("side.gz");
  const std::string sidecar = gz + ".gzix";
  write_file(gz, ByteSpan(file.data(), file.size()));

  {
    auto src = serve::open_file_source(gz);
    ingest::GzipIndexOptions gopt;
    gopt.chunk_size = 64 * 1024;
    ingest::GzipIndex::build(*src, gopt).save(sidecar);
  }

  const obs::MetricsSnapshot before = metrics_snapshot();
  OpenOptions opt;
  opt.sidecar_path = sidecar;
  auto session = open(gz, opt);
  Bytes out(session->size());
  ASSERT_EQ(session->read_at(0, MutableByteSpan(out.data(), out.size())),
            out.size());
  EXPECT_EQ(out, input);
  const obs::MetricsSnapshot after = metrics_snapshot();

  // Reopen is O(sidecar): no new index build, not one boundary bit
  // scanned, exactly one sidecar load.
  EXPECT_EQ(after.counter("ingest.index_builds"),
            before.counter("ingest.index_builds"));
  EXPECT_EQ(after.counter("ingest.boundary_bits_scanned"),
            before.counter("ingest.boundary_bits_scanned"));
  EXPECT_EQ(after.counter("ingest.sidecar_loads"),
            before.counter("ingest.sidecar_loads") + 1);

  std::remove(gz.c_str());
  std::remove(sidecar.c_str());
}

TEST(IngestGzip, SidecarRoundTripsThroughSerialization) {
  const Bytes input = datagen::wikipedia(300000);
  const Bytes file = gzip_store_member(ByteSpan(input.data(), input.size()));
  auto src = serve::memory_source(ByteSpan(file.data(), file.size()));
  ingest::GzipIndexOptions gopt;
  gopt.chunk_size = 64 * 1024;
  const ingest::GzipIndex index = ingest::GzipIndex::build(*src, gopt);
  const Bytes blob = index.serialize();
  const ingest::GzipIndex back =
      ingest::GzipIndex::deserialize(ByteSpan(blob.data(), blob.size()));
  ASSERT_EQ(back.num_chunks(), index.num_chunks());
  ASSERT_EQ(back.total_uncompressed(), index.total_uncompressed());
  ASSERT_EQ(back.source_size(), index.source_size());
  for (std::size_t i = 0; i < index.num_chunks(); ++i) {
    EXPECT_EQ(back.chunk(i).start_bit, index.chunk(i).start_bit);
    EXPECT_EQ(back.chunk(i).uncomp_size, index.chunk(i).uncomp_size);
  }
}

TEST(IngestGzip, WrongSidecarFlavorIsRejected) {
  const Bytes input = datagen::wikipedia(50000);
  const Bytes gzfile = gzip_store_member(ByteSpan(input.data(), input.size()));
  const std::string gz = temp_path("wrong.gz");
  write_file(gz, ByteSpan(gzfile.data(), gzfile.size()));

  // A native .gmpx sidecar offered for a gzip container must not be
  // silently accepted (nor silently rebuilt).
  const Bytes native = compress(ByteSpan(input.data(), input.size()), {});
  const std::string gmpx = temp_path("wrong.gmpx");
  {
    auto nsrc = serve::memory_source(ByteSpan(native.data(), native.size()));
    serve::SeekIndex::build(*nsrc).save(gmpx);
  }
  OpenOptions opt;
  opt.sidecar_path = gmpx;
  EXPECT_THROW(open(gz, opt), FormatError);
  std::remove(gz.c_str());
  std::remove(gmpx.c_str());
}

TEST(IngestGzip, MutatedGzixSidecarsParseOrFailTyped) {
  // A GZIX sidecar of a three-member .gz (stored, fixed-Huffman with
  // long back-references, stored), mutated: each mutant parses or throws
  // FormatError, and one that parses serves exactly the real file's bytes
  // or throws a typed error.
  const Bytes a = datagen::wikipedia(60000);
  const Bytes b = datagen::random_bytes(40000, 7);
  Bytes file = gzip_store_member(ByteSpan(a.data(), a.size()));
  const Bytes zeros = gzip_zero_runs_member(/*pairs=*/20, /*matches=*/52);
  const Bytes last = gzip_store_member(ByteSpan(b.data(), b.size()));
  file.insert(file.end(), zeros.begin(), zeros.end());
  file.insert(file.end(), last.begin(), last.end());
  auto src = serve::memory_source(ByteSpan(file.data(), file.size()));
  ingest::GzipIndexOptions gopt;
  gopt.chunk_size = 16 * 1024;
  const ingest::GzipIndex index = ingest::GzipIndex::build(*src, gopt);
  ASSERT_EQ(index.num_members(), 3u);
  ASSERT_GT(index.num_chunks(), 3u);

  Bytes expected = a;
  expected.resize(a.size() + 20 * (kAnchorZeros + 258 * 52), 0);
  expected.insert(expected.end(), b.begin(), b.end());
  const testing::SidecarFuzzCounts counts = testing::fuzz_sidecar(
      index.serialize(), file, expected, temp_path("fuzz.gzix"),
      [](ByteSpan m) { ingest::GzipIndex::deserialize(m); });
  EXPECT_GT(counts.rejected, 0);
  EXPECT_GT(counts.loaded, 0);
}

TEST(IngestGzip, MutatedGzixSidecarsOfRealGzipServeExactBytes) {
  // The same fuzz over real `gzip -6` text at a 16 KiB pitch, whose
  // chunks reach back into their start windows: a mutant window decodes
  // wrong bytes, which the chunk CRCs must turn into a typed error.
  if (!have_gzip_binary()) GTEST_SKIP() << "no gzip binary on PATH";
  const Bytes input = datagen::wikipedia(400 * 1024);
  const Bytes file = system_gzip(input, "fuzzreal");
  auto src = serve::memory_source(ByteSpan(file.data(), file.size()));
  ingest::GzipIndexOptions gopt;
  gopt.chunk_size = 16 * 1024;
  const ingest::GzipIndex index = ingest::GzipIndex::build(*src, gopt);
  ASSERT_GE(index.num_chunks(), 2u);
  const testing::SidecarFuzzCounts counts = testing::fuzz_sidecar(
      index.serialize(), file, input, temp_path("fuzzreal.gzix"),
      [](ByteSpan m) { ingest::GzipIndex::deserialize(m); });
  EXPECT_GT(counts.loaded, 0);
}

TEST(IngestGzip, Version1SidecarIsAFormatErrorNamingTheVersion) {
  const Bytes input = datagen::wikipedia(100000);
  const Bytes file = gzip_store_member(ByteSpan(input.data(), input.size()));
  auto src = serve::memory_source(ByteSpan(file.data(), file.size()));
  ingest::GzipIndexOptions gopt;
  gopt.chunk_size = 32 * 1024;
  Bytes blob = ingest::GzipIndex::build(*src, gopt).serialize();
  ASSERT_EQ(blob[4], ingest::kGzipIndexVersion);
  blob[4] = 1;  // version 1: no chunk CRCs
  try {
    ingest::GzipIndex::deserialize(ByteSpan(blob.data(), blob.size()));
    FAIL() << "a version-1 sidecar loaded";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos) << e.what();
  }
}

TEST(IngestGzip, WrongStartWindowIsCaughtByTheChunkCrc) {
  // A sidecar whose start window is wrong decodes wrong bytes; the
  // chunk CRC it carries turns that into a CorruptionError, unless
  // verify_checksums is off.
  if (!have_gzip_binary()) GTEST_SKIP() << "no gzip binary on PATH";
  const Bytes input = datagen::wikipedia(300000);
  const Bytes file = system_gzip(input, "crcwin");
  auto src = serve::memory_source(ByteSpan(file.data(), file.size()));
  ingest::GzipIndexOptions gopt;
  gopt.chunk_size = 16 * 1024;
  const ingest::GzipIndex index = ingest::GzipIndex::build(*src, gopt);
  ASSERT_GE(index.num_chunks(), 2u);
  Bytes blob = index.serialize();
  const ByteSpan window = index.window(1);
  const auto at = std::search(blob.begin(), blob.end(), window.begin(), window.end());
  ASSERT_NE(at, blob.end());
  for (auto it = at; it != at + static_cast<long>(window.size()); ++it) *it ^= 0x20;
  const std::string gz = temp_path("crcwin.gz");
  const std::string sidecar = gz + ".gzix";
  write_file(gz, ByteSpan(file.data(), file.size()));
  write_file(sidecar, ByteSpan(blob.data(), blob.size()));

  const ingest::GzipChunk& c = index.chunk(1);
  Bytes out(static_cast<std::size_t>(c.uncomp_size));
  OpenOptions opt;
  opt.sidecar_path = sidecar;
  opt.session.num_threads = 1;
  {
    auto session = open(gz, opt);
    EXPECT_THROW(session->read_at(c.uncomp_offset, MutableByteSpan(out.data(), out.size())),
                 CorruptionError);
  }
  opt.session.verify_checksums = false;
  {
    auto session = open(gz, opt);
    ASSERT_EQ(session->read_at(c.uncomp_offset, MutableByteSpan(out.data(), out.size())),
              out.size());
    EXPECT_FALSE(std::equal(out.begin(), out.end(),
                            input.begin() + static_cast<long>(c.uncomp_offset)));
  }
  std::remove(gz.c_str());
  std::remove(sidecar.c_str());
}

/// Decodes every chunk of `file`'s index as GzipBackend does (a
/// ByteSink with the chunk's start window), into a span inside a buffer
/// of canary bytes, and checks the bytes and the canaries: a copy that
/// writes past the span's end would change one.
void decode_chunks_guarded(const Bytes& file, const Bytes& expected,
                           std::uint64_t chunk_size) {
  constexpr std::size_t kGuard = 64;
  constexpr std::uint8_t kCanary = 0xA5;
  auto src = serve::memory_source(ByteSpan(file.data(), file.size()));
  ingest::GzipIndexOptions gopt;
  gopt.chunk_size = chunk_size;
  const ingest::GzipIndex index = ingest::GzipIndex::build(*src, gopt);
  ASSERT_EQ(index.total_uncompressed(), expected.size());
  ingest::InflateScratch scratch;
  for (std::size_t i = 0; i < index.num_chunks(); ++i) {
    const ingest::GzipChunk& c = index.chunk(i);
    const std::size_t size = static_cast<std::size_t>(c.uncomp_size);
    Bytes buf(size + 2 * kGuard, kCanary);
    ingest::ByteSink sink(MutableByteSpan(buf.data() + kGuard, size), index.window(i));
    ingest::ChunkResult res;
    EXPECT_NE(ingest::inflate_chunk(ByteSpan(file.data(), file.size()), c.start_bit,
                                    c.end_bit, file.size(), sink, scratch, res),
              ingest::ChunkStatus::kNeedMoreData);
    EXPECT_EQ(sink.produced(), size) << "chunk " << i;
    EXPECT_TRUE(std::equal(buf.begin() + kGuard, buf.begin() + static_cast<long>(kGuard + size),
                           expected.begin() + static_cast<long>(c.uncomp_offset)))
        << "chunk " << i;
    for (std::size_t g = 0; g < kGuard; ++g) {
      ASSERT_EQ(buf[g], kCanary) << "chunk " << i;
      ASSERT_EQ(buf[kGuard + size + g], kCanary) << "chunk " << i;
    }
  }
}

TEST(IngestGzip, ByteSinkStaysInsideItsSpan) {
  // Stored blocks (literal pushes), zero runs (distance-1 matches, wild
  // far from a chunk's end and exact near it) and, with a gzip binary,
  // text (distance >= 16 wild copies and start-window copies).
  const Bytes text = datagen::wikipedia(200000);
  decode_chunks_guarded(gzip_store_member(ByteSpan(text.data(), text.size())), text,
                        32 * 1024);
  const Bytes zeros(30 * (kAnchorZeros + 258 * 53), 0);
  decode_chunks_guarded(gzip_zero_runs_member(/*pairs=*/30, /*matches=*/53), zeros, 4096);
  if (have_gzip_binary()) {
    decode_chunks_guarded(system_gzip(text, "guard"), text, 16 * 1024);
  }
}

// --------------------------------------------------------- chaos soak

TEST(IngestGzip, TransientFaultsAreAbsorbed) {
  const Bytes input = datagen::wikipedia(250000);
  const Bytes file = gzip_store_member(ByteSpan(input.data(), input.size()));
  const int trials = testing::fuzz_trials(2);
  for (int trial = 0; trial < trials; ++trial) {
    auto faulty = std::make_unique<serve::FaultInjectingByteSource>(
        serve::memory_source(ByteSpan(file.data(), file.size())));
    serve::FaultInjectingByteSource* handle = faulty.get();
    OpenOptions opt;
    opt.session.num_threads = 2;
    opt.session.cache_blocks = 2;  // force re-decodes (fresh faults)
    opt.session.sleep_hook = [](std::uint64_t) {};
    opt.gzip.chunk_size = 48 * 1024;
    auto session = open(std::move(faulty), opt);
    const test::ServeDelta delta;

    // Armed after the scan; burst 2 < max_attempts 3 makes absorption a
    // certainty, not a probability (same contract as test_chaos).
    handle->set_random_transients(/*rate=*/0.3, /*burst=*/2,
                                  /*seed=*/500u + static_cast<unsigned>(trial));

    Bytes out(session->size());
    ASSERT_EQ(session->read_at(0, MutableByteSpan(out.data(), out.size())),
              out.size());
    EXPECT_EQ(out, input) << "trial " << trial;
    EXPECT_EQ(delta("permanent_errors"), 0u);
  }
}

// ------------------------------------------------------------- pipe

TEST(IngestGzip, PipeMultiMemberMatchesAtOneAndFourThreads) {
  // Three members over about 1.9 MB of stored blocks: several 512 KiB
  // index chunks (the pipe builds its index with the default pitch), so
  // chunks cross member boundaries.
  const Bytes a = datagen::wikipedia(900000);
  const Bytes b = datagen::random_bytes(700000, 11);
  const Bytes c = datagen::wikipedia(300000);
  Bytes file;
  Bytes want;
  for (const Bytes* m : {&a, &b, &c}) {
    const Bytes member = gzip_store_member(ByteSpan(m->data(), m->size()));
    file.insert(file.end(), member.begin(), member.end());
    want.insert(want.end(), m->begin(), m->end());
  }
  ASSERT_GT(file.size(), 3 * ingest::GzipIndexOptions{}.chunk_size);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SequentialBuf buf(std::string(reinterpret_cast<const char*>(file.data()),
                                  file.size()));
    std::istream in(&buf);
    ASSERT_EQ(in.tellg(), std::istream::pos_type(-1));  // really not seekable
    in.clear();
    std::ostringstream out;
    DecompressOptions opt;
    opt.num_threads = threads;
    const std::uint64_t n = decompress_stream(in, out, opt);
    EXPECT_EQ(n, want.size()) << threads << " threads";
    const std::string& s = out.str();
    EXPECT_EQ(Bytes(s.begin(), s.end()), want) << threads << " threads";
  }
}

TEST(IngestGzip, SeekableStreamUsesTheSessionPath) {
  const Bytes input = datagen::wikipedia(120000);
  const Bytes file = gzip_store_member(ByteSpan(input.data(), input.size()));
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(file.data()), file.size()));
  std::ostringstream out;
  const std::uint64_t n = decompress_stream(in, out);
  EXPECT_EQ(n, input.size());
  EXPECT_EQ(out.str(),
            std::string(reinterpret_cast<const char*>(input.data()),
                        input.size()));
  // The cursor lands just past the stream, as sequential use expects.
  EXPECT_EQ(static_cast<std::uint64_t>(in.tellg()), file.size());
}

// ------------------------------------------------------- random reads

TEST(IngestGzip, RandomRangeReadsMatchReference) {
  const Bytes input = datagen::wikipedia(600000);
  const Bytes file = gzip_store_member(ByteSpan(input.data(), input.size()));
  OpenOptions opt;
  opt.session.num_threads = 2;
  opt.gzip.chunk_size = 64 * 1024;
  auto session =
      open(serve::memory_source(ByteSpan(file.data(), file.size())), opt);
  Rng rng(77);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t off = rng.next_u64() % input.size();
    const std::size_t len = static_cast<std::size_t>(
        std::min<std::uint64_t>(1 + rng.next_u64() % 5000, input.size() - off));
    Bytes got(len);
    ASSERT_EQ(session->read_at(off, MutableByteSpan(got.data(), got.size())),
              len);
    EXPECT_TRUE(std::equal(got.begin(), got.end(),
                           input.begin() + static_cast<long>(off)));
  }
}

}  // namespace
}  // namespace gompresso
