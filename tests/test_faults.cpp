// Tests for the serve-plane robustness layer: the deterministic
// fault-injection harness (FaultInjectingByteSource + FaultPlan), the
// typed error taxonomy (IoError / CorruptionError / FormatError), the
// DecodeSession retry/backoff policy, and damage-tolerant reads
// (read_at_damage_tolerant / verify_archive / block_health).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include "core/gompresso.hpp"
#include "datagen/datasets.hpp"
#include "gmpz_session.hpp"
#include "serve/fault_source.hpp"

namespace gompresso {
namespace {

struct Fixture {
  Bytes input;
  Bytes file;  // single GMPZ container

  explicit Fixture(std::size_t size = 100000, std::uint32_t block_size = 16 * 1024,
                   Codec codec = Codec::kBit) {
    input = datagen::wikipedia(size);
    CompressOptions opt;
    opt.codec = codec;
    opt.block_size = block_size;
    file = compress(input, opt);
  }
};

std::unique_ptr<serve::FaultInjectingByteSource> wrap(const Bytes& data,
                                                      serve::FaultPlan plan = {}) {
  return std::make_unique<serve::FaultInjectingByteSource>(
      serve::memory_source(ByteSpan(data.data(), data.size())), std::move(plan));
}

// ---------------------------------------------------------------------------
// FaultPlan grammar

TEST(FaultPlan, ParsesEveryItemKind) {
  const serve::FaultPlan plan = serve::FaultPlan::parse(
      "transient@128:2,transient@*:5,short@64,flip@32+8:0x7,zero@16+4,"
      "rate=0.25,burst=3,seed=9,latency=5");
  ASSERT_EQ(plan.faults.size(), 5u);
  EXPECT_EQ(plan.faults[0].kind, serve::FaultSpec::Kind::kTransient);
  EXPECT_EQ(plan.faults[0].offset, 128u);
  EXPECT_EQ(plan.faults[0].count, 2u);
  EXPECT_EQ(plan.faults[1].offset, serve::FaultSpec::kAnyOffset);
  EXPECT_EQ(plan.faults[1].count, 5u);
  EXPECT_EQ(plan.faults[2].kind, serve::FaultSpec::Kind::kShortRead);
  EXPECT_EQ(plan.faults[2].count, 1u);
  EXPECT_EQ(plan.faults[3].kind, serve::FaultSpec::Kind::kFlip);
  EXPECT_EQ(plan.faults[3].offset, 32u);
  EXPECT_EQ(plan.faults[3].length, 8u);
  EXPECT_EQ(plan.faults[3].mask, 0x7);
  EXPECT_EQ(plan.faults[4].kind, serve::FaultSpec::Kind::kZeroFill);
  EXPECT_EQ(plan.faults[4].length, 4u);
  EXPECT_DOUBLE_EQ(plan.transient_rate, 0.25);
  EXPECT_EQ(plan.transient_burst, 3u);
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_EQ(plan.latency_us, 5u);
}

TEST(FaultPlan, EmptySpecIsEmptyPlan) {
  const serve::FaultPlan plan = serve::FaultPlan::parse("");
  EXPECT_TRUE(plan.faults.empty());
  EXPECT_DOUBLE_EQ(plan.transient_rate, 0.0);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(serve::FaultPlan::parse("bogus@1"), Error);
  EXPECT_THROW(serve::FaultPlan::parse("flip@3"), Error);       // needs +LEN
  EXPECT_THROW(serve::FaultPlan::parse("flip@3+0"), Error);     // empty extent
  EXPECT_THROW(serve::FaultPlan::parse("zero@3+4:1"), Error);   // no suffix
  EXPECT_THROW(serve::FaultPlan::parse("transient@*:0"), Error);
  EXPECT_THROW(serve::FaultPlan::parse("transient@x"), Error);
  EXPECT_THROW(serve::FaultPlan::parse("rate=1.5"), Error);
  EXPECT_THROW(serve::FaultPlan::parse("rate=nope"), Error);
  EXPECT_THROW(serve::FaultPlan::parse("burst=0"), Error);
  EXPECT_THROW(serve::FaultPlan::parse("foo=1"), Error);
  EXPECT_THROW(serve::FaultPlan::parse("transient"), Error);
}

// ---------------------------------------------------------------------------
// Harness semantics

TEST(FaultSource, TransientFailsExactlyCountTimesThenClears) {
  Bytes data(256);
  std::iota(data.begin(), data.end(), 0);
  auto src = wrap(data);
  src->inject(serve::FaultSpec::transient_at(0, 2));

  Bytes buf(16);
  const MutableByteSpan dst(buf.data(), buf.size());
  EXPECT_THROW(src->read_at(0, dst), IoError);
  EXPECT_THROW(src->read_at(0, dst), IoError);
  src->read_at(0, dst);  // cleared
  EXPECT_TRUE(std::equal(buf.begin(), buf.end(), data.begin()));
  // Reads at other offsets never matched the fault.
  src->read_at(100, dst);
  EXPECT_TRUE(std::equal(buf.begin(), buf.end(), data.begin() + 100));

  const serve::FaultStats st = src->stats();
  EXPECT_EQ(st.reads, 4u);
  EXPECT_EQ(st.transient_failures, 2u);
  EXPECT_EQ(st.corrupted_reads, 0u);
}

TEST(FaultSource, AnyOffsetMatchesEveryRead) {
  Bytes data(64, std::uint8_t{7});
  auto src = wrap(data);
  src->inject(serve::FaultSpec::transient_any(2));
  Bytes buf(8);
  const MutableByteSpan dst(buf.data(), buf.size());
  EXPECT_THROW(src->read_at(0, dst), IoError);
  EXPECT_THROW(src->read_at(40, dst), IoError);
  src->read_at(20, dst);
}

TEST(FaultSource, ShortReadDeliversPrefixThenThrows) {
  Bytes data(64);
  std::iota(data.begin(), data.end(), 0);
  auto src = wrap(data);
  src->inject(serve::FaultSpec::short_read_at(0));
  Bytes buf(16, std::uint8_t{0xEE});
  EXPECT_THROW(src->read_at(0, MutableByteSpan(buf.data(), buf.size())), IoError);
  // The prefix was filled before the failure; the tail was not touched.
  EXPECT_TRUE(std::equal(buf.begin(), buf.begin() + 8, data.begin()));
  EXPECT_EQ(buf[15], 0xEE);
  EXPECT_EQ(src->stats().short_reads, 1u);
  src->read_at(0, MutableByteSpan(buf.data(), buf.size()));  // one-shot
}

TEST(FaultSource, FlipAndZeroFillCorruptOnlyTheirExtents) {
  Bytes data(64);
  std::iota(data.begin(), data.end(), 0);
  auto src = wrap(data);
  src->inject(serve::FaultSpec::flip(10, 4, 0xFF));
  src->inject(serve::FaultSpec::zero_fill(20, 5));

  Bytes buf(64);
  src->read_at(0, MutableByteSpan(buf.data(), buf.size()));
  for (std::size_t i = 0; i < 64; ++i) {
    if (i >= 10 && i < 14) {
      EXPECT_EQ(buf[i], static_cast<std::uint8_t>(data[i] ^ 0xFF)) << i;
    } else if (i >= 20 && i < 25) {
      EXPECT_EQ(buf[i], 0u) << i;
    } else {
      EXPECT_EQ(buf[i], data[i]) << i;
    }
  }
  EXPECT_EQ(src->stats().corrupted_reads, 1u);

  // Persistent (damaged media): a second read sees the same bytes, and
  // partial overlap corrupts only the intersection.
  Bytes part(8);
  src->read_at(12, MutableByteSpan(part.data(), part.size()));
  EXPECT_EQ(part[0], static_cast<std::uint8_t>(data[12] ^ 0xFF));
  EXPECT_EQ(part[1], static_cast<std::uint8_t>(data[13] ^ 0xFF));
  EXPECT_EQ(part[2], data[14]);
  // A read that misses every extent is untouched.
  src->read_at(30, MutableByteSpan(part.data(), part.size()));
  EXPECT_TRUE(std::equal(part.begin(), part.end(), data.begin() + 30));
  EXPECT_EQ(src->stats().corrupted_reads, 2u);
}

TEST(FaultSource, LatencyCountsDelayedReads) {
  Bytes data(32, std::uint8_t{1});
  auto src = wrap(data);
  src->inject(serve::FaultSpec::latency(/*delay_us=*/1));
  Bytes buf(4);
  src->read_at(0, MutableByteSpan(buf.data(), buf.size()));
  src->read_at(8, MutableByteSpan(buf.data(), buf.size()));
  EXPECT_EQ(src->stats().delayed_reads, 2u);
}

TEST(FaultSource, RandomBurstsAreDeterministicAndBounded) {
  Bytes data(4096, std::uint8_t{3});
  const auto pattern = [&](std::uint64_t seed) {
    auto src = wrap(data);
    src->set_random_transients(/*rate=*/0.5, /*burst=*/2, seed);
    std::vector<int> fails_per_offset;
    Bytes buf(64);
    for (std::uint64_t off = 0; off < 4096; off += 64) {
      int fails = 0;
      // Retry until the offset succeeds; burst=2 bounds this.
      for (int attempt = 0; attempt < 8; ++attempt) {
        try {
          src->read_at(off, MutableByteSpan(buf.data(), buf.size()));
          break;
        } catch (const IoError&) {
          ++fails;
        }
      }
      // Once cleared, the offset is immune.
      src->read_at(off, MutableByteSpan(buf.data(), buf.size()));
      fails_per_offset.push_back(fails);
    }
    return fails_per_offset;
  };

  const std::vector<int> a = pattern(42);
  const std::vector<int> b = pattern(42);
  const std::vector<int> c = pattern(43);
  EXPECT_EQ(a, b);  // same seed -> identical schedule
  EXPECT_NE(a, c);  // different seed -> different schedule
  int triggered = 0;
  for (const int fails : a) {
    EXPECT_TRUE(fails == 0 || fails == 2) << "burst must fail exactly twice";
    triggered += fails > 0 ? 1 : 0;
  }
  EXPECT_GT(triggered, 0);          // rate 0.5 over 64 offsets
  EXPECT_LT(triggered, 64);
}

TEST(FaultSource, ClearFaultsDisarmsEverything) {
  Bytes data(64, std::uint8_t{9});
  auto src = wrap(data);
  src->inject(serve::FaultSpec::transient_any(100));
  src->set_random_transients(1.0, 1, 7);
  src->clear_faults();
  Bytes buf(8);
  src->read_at(0, MutableByteSpan(buf.data(), buf.size()));  // no throw
}

// ---------------------------------------------------------------------------
// Typed error taxonomy

TEST(ErrorTaxonomy, KindsAndTransience) {
  EXPECT_EQ(Error("x").kind(), ErrorKind::kConfig);
  EXPECT_EQ(IoError("x").kind(), ErrorKind::kIo);
  EXPECT_EQ(CorruptionError("x").kind(), ErrorKind::kCorruption);
  EXPECT_EQ(FormatError("x").kind(), ErrorKind::kFormat);
  EXPECT_TRUE(is_transient(IoError("x")));
  EXPECT_FALSE(is_transient(CorruptionError("x")));
  EXPECT_FALSE(is_transient(FormatError("x")));
  EXPECT_FALSE(is_transient(Error("x")));
}

TEST(ErrorTaxonomy, BadMagicIsFormatError) {
  const Bytes junk = {'N', 'O', 'P', 'E', 0, 0, 0, 0};
  const auto source = serve::memory_source(ByteSpan(junk.data(), junk.size()));
  EXPECT_THROW(serve::SeekIndex::build(*source), FormatError);
}

TEST(ErrorTaxonomy, CrcMismatchIsCorruptionError) {
  Fixture f;
  f.file[f.file.size() / 2] ^= 0x40;
  serve::SessionOptions opt;
  opt.num_threads = 1;
  DecodeSession session = test::gmpz_session(
      serve::memory_source(ByteSpan(f.file.data(), f.file.size())), opt);
  Bytes buf(f.input.size());
  EXPECT_THROW(session.read_at(0, MutableByteSpan(buf.data(), buf.size())),
               CorruptionError);
  EXPECT_GE(session.stats().permanent_errors, 1u);
}

TEST(ErrorTaxonomy, IstreamSourceDeviceFailureIsIoError) {
  // The stream's buffer shrinks under the source after wrap time —
  // a mid-read device failure, not a malformed container.
  std::istringstream stream(std::string(1000, 'a'));
  const auto source = serve::istream_source(stream);
  ASSERT_EQ(source->size(), 1000u);
  stream.str(std::string(10, 'a'));
  Bytes buf(50);
  EXPECT_THROW(source->read_at(100, MutableByteSpan(buf.data(), buf.size())),
               IoError);
}

TEST(ErrorTaxonomy, FileTruncatedAfterOpenIsIoError) {
  const Fixture f;
  const std::string path = "/tmp/gompresso_fault_trunc_test.gmp";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(f.file.data()),
              static_cast<std::streamsize>(f.file.size()));
  }
  serve::SessionOptions opt;
  opt.num_threads = 1;
  opt.retry.max_attempts = 1;  // surface the IoError, not its retries
  DecodeSession session =
      test::gmpz_session(serve::open_file_source(path), opt);  // scan succeeds
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);  // shrink to 0
  }
  Bytes buf(1000);
  EXPECT_THROW(session.read_at(0, MutableByteSpan(buf.data(), buf.size())),
               IoError);
  std::remove(path.c_str());
}

TEST(ErrorTaxonomy, SidecarShorterThanHeaderIsFormatError) {
  const Fixture f;
  const auto source = serve::memory_source(ByteSpan(f.file.data(), f.file.size()));
  const serve::SeekIndex index = serve::SeekIndex::build(*source);
  const std::string path = "/tmp/gompresso_fault_sidecar_test.gmpx";
  index.save(path);
  const Bytes sidecar = [&] {
    std::ifstream in(path, std::ios::binary);
    Bytes all((std::istreambuf_iterator<char>(in)),
              std::istreambuf_iterator<char>());
    return all;
  }();
  ASSERT_GT(sidecar.size(), 6u);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(sidecar.data()), 6);
  }
  EXPECT_THROW(serve::SeekIndex::load(path), FormatError);
  std::remove(path.c_str());
}

TEST(SourceReader, TrySeekReportsPastEndInsteadOfThrowing) {
  // Satellite regression: try_seek used to throw on a past-end target,
  // violating the ByteReader contract (report false; the caller decides).
  const Bytes data(100, std::uint8_t{5});
  const auto source = serve::memory_source(ByteSpan(data.data(), data.size()));

  struct Probe : serve::SourceReader {
    using serve::SourceReader::SourceReader;
    using serve::SourceReader::try_seek;  // expose the protected contract
  } reader(*source);

  EXPECT_TRUE(reader.try_seek(0));
  EXPECT_TRUE(reader.try_seek(100));  // end is reachable (zero bytes left)
  EXPECT_FALSE(reader.try_seek(101));

  // seek_to turns the false into a typed structural error.
  Probe seeker(*source);
  EXPECT_THROW(seeker.seek_to(101), FormatError);

  // skip past the end drains the window and reports truncation (the
  // fallback path try_seek's false return hands control to).
  Probe skipper(*source);
  EXPECT_THROW(skipper.skip(101), FormatError);
  Probe ok(*source);
  ok.skip(100);
  EXPECT_TRUE(ok.at_end());
}

// ---------------------------------------------------------------------------
// Retry / backoff policy

TEST(RetryPolicy, BackoffIsCappedExponential) {
  serve::RetryPolicy p;
  p.base_backoff_us = 500;
  p.max_backoff_us = 3000;
  EXPECT_EQ(p.backoff_us(2), 500u);
  EXPECT_EQ(p.backoff_us(3), 1000u);
  EXPECT_EQ(p.backoff_us(4), 2000u);
  EXPECT_EQ(p.backoff_us(5), 3000u);  // capped
  EXPECT_EQ(p.backoff_us(100), 3000u);  // shift overflow guarded
}

TEST(RetryPolicy, JitterStaysInsideTheConfiguredBand) {
  serve::RetryPolicy p;
  p.jitter = 0.25;
  for (std::uint64_t salt = 0; salt < 64; ++salt) {
    for (std::size_t attempt = 2; attempt <= 6; ++attempt) {
      const std::uint64_t base = p.backoff_us(attempt);
      const std::uint64_t j = p.jittered_backoff_us(attempt, salt);
      // [base*(1-j), base*(1+j)) — integer-truncated at the low edge.
      EXPECT_GE(j, base - base / 4);
      EXPECT_LT(j, base + base / 4 + 1);
    }
  }
}

TEST(RetryPolicy, JitterIsDeterministicPerSeedAndSalt) {
  serve::RetryPolicy a;
  serve::RetryPolicy b = a;
  // Same (seed, salt, attempt) -> same sleep: fault plans replay.
  EXPECT_EQ(a.jittered_backoff_us(2, 7), b.jittered_backoff_us(2, 7));
  // Different salts (blocks/connections) de-correlate.
  bool varies = false;
  for (std::uint64_t salt = 0; salt < 16 && !varies; ++salt) {
    varies = a.jittered_backoff_us(2, salt) != a.jittered_backoff_us(2, salt + 1);
  }
  EXPECT_TRUE(varies);
  // A different seed draws a different ladder somewhere.
  b.jitter_seed ^= 0xDEADBEEFull;
  bool seed_varies = false;
  for (std::uint64_t salt = 0; salt < 16 && !seed_varies; ++salt) {
    seed_varies = a.jittered_backoff_us(2, salt) != b.jittered_backoff_us(2, salt);
  }
  EXPECT_TRUE(seed_varies);
}

TEST(RetryPolicy, ZeroJitterReproducesTheExactLadder) {
  serve::RetryPolicy p;
  p.jitter = 0;
  for (std::size_t attempt = 2; attempt <= 8; ++attempt) {
    EXPECT_EQ(p.jittered_backoff_us(attempt, 42), p.backoff_us(attempt));
  }
}

TEST(DecodeSession, JitteredRetrySleepsStayInBandAndAbsorbFaults) {
  const Fixture f;
  auto faulty = wrap(f.file);
  serve::FaultInjectingByteSource* handle = faulty.get();
  std::vector<std::uint64_t> sleeps;
  serve::SessionOptions opt;
  opt.num_threads = 1;  // default jitter = 0.25 stays on
  opt.sleep_hook = [&sleeps](std::uint64_t us) { sleeps.push_back(us); };
  DecodeSession session = test::gmpz_session(std::move(faulty), opt);

  handle->inject(serve::FaultSpec::transient_any(2));
  Bytes buf(1000);
  ASSERT_EQ(session.read_at(0, MutableByteSpan(buf.data(), buf.size())), 1000u);
  EXPECT_TRUE(std::equal(buf.begin(), buf.end(), f.input.begin()));
  ASSERT_EQ(sleeps.size(), 2u);
  // attempt 2 from base 500, attempt 3 from base 1000, each +/- 25%.
  EXPECT_GE(sleeps[0], 375u);
  EXPECT_LT(sleeps[0], 626u);
  EXPECT_GE(sleeps[1], 750u);
  EXPECT_LT(sleeps[1], 1251u);
}

TEST(DecodeSession, RetryAbsorbsTransientFaults) {
  const Fixture f;
  auto faulty = wrap(f.file);
  serve::FaultInjectingByteSource* handle = faulty.get();
  std::vector<std::uint64_t> sleeps;
  serve::SessionOptions opt;
  opt.num_threads = 1;
  opt.retry.jitter = 0;  // exact ladder for this test
  opt.sleep_hook = [&sleeps](std::uint64_t us) { sleeps.push_back(us); };
  DecodeSession session = test::gmpz_session(std::move(faulty), opt);

  handle->inject(serve::FaultSpec::transient_any(2));  // < max_attempts = 3
  Bytes buf(1000);
  ASSERT_EQ(session.read_at(0, MutableByteSpan(buf.data(), buf.size())), 1000u);
  EXPECT_TRUE(std::equal(buf.begin(), buf.end(), f.input.begin()));

  const serve::SessionStats st = session.stats();
  EXPECT_EQ(st.transient_errors, 2u);
  EXPECT_EQ(st.retries, 2u);
  EXPECT_EQ(st.permanent_errors, 0u);
  EXPECT_EQ(st.decode_failures, 0u);
  // Deterministic backoff ladder: 500, then 1000.
  ASSERT_EQ(sleeps.size(), 2u);
  EXPECT_EQ(sleeps[0], 500u);
  EXPECT_EQ(sleeps[1], 1000u);
}

TEST(DecodeSession, RetryExhaustionSurfacesIoErrorAndHealthStaysUnknown) {
  const Fixture f;
  auto faulty = wrap(f.file);
  serve::FaultInjectingByteSource* handle = faulty.get();
  std::vector<std::uint64_t> sleeps;
  serve::SessionOptions opt;
  opt.num_threads = 1;
  opt.sleep_hook = [&sleeps](std::uint64_t us) { sleeps.push_back(us); };
  DecodeSession session = test::gmpz_session(std::move(faulty), opt);

  handle->inject(serve::FaultSpec::transient_any(3));  // == max_attempts
  Bytes buf(1000);
  EXPECT_THROW(session.read_at(0, MutableByteSpan(buf.data(), buf.size())),
               IoError);
  ASSERT_EQ(sleeps.size(), 2u);  // slept before attempts 2 and 3 only

  // Transient exhaustion is not damage: the block stays kUnknown and the
  // next read (fault now cleared) succeeds.
  EXPECT_EQ(session.block_health(0), serve::BlockHealth::kUnknown);
  ASSERT_EQ(session.read_at(0, MutableByteSpan(buf.data(), buf.size())), 1000u);
  EXPECT_TRUE(std::equal(buf.begin(), buf.end(), f.input.begin()));
  EXPECT_EQ(session.block_health(0), serve::BlockHealth::kGood);
  EXPECT_EQ(session.stats().transient_errors, 3u);
  EXPECT_EQ(session.stats().retries, 2u);
}

TEST(DecodeSession, DeadlineCapsCumulativeBackoff) {
  const Fixture f;
  auto faulty = wrap(f.file);
  serve::FaultInjectingByteSource* handle = faulty.get();
  std::vector<std::uint64_t> sleeps;
  serve::SessionOptions opt;
  opt.num_threads = 1;
  opt.retry.max_attempts = 10;
  opt.retry.jitter = 0;         // exact ladder for the deadline arithmetic
  opt.retry.deadline_us = 600;  // allows the 500us sleep, not 500 + 1000
  opt.sleep_hook = [&sleeps](std::uint64_t us) { sleeps.push_back(us); };
  DecodeSession session = test::gmpz_session(std::move(faulty), opt);

  handle->inject(serve::FaultSpec::transient_any(5));
  Bytes buf(1000);
  EXPECT_THROW(session.read_at(0, MutableByteSpan(buf.data(), buf.size())),
               IoError);
  ASSERT_EQ(sleeps.size(), 1u);
  EXPECT_EQ(sleeps[0], 500u);
}

TEST(DecodeSession, PermanentErrorsAreNeverRetried) {
  Fixture f;
  f.file[f.file.size() / 2] ^= 0x40;
  std::vector<std::uint64_t> sleeps;
  serve::SessionOptions opt;
  opt.num_threads = 1;
  opt.sleep_hook = [&sleeps](std::uint64_t us) { sleeps.push_back(us); };
  DecodeSession session = test::gmpz_session(
      serve::memory_source(ByteSpan(f.file.data(), f.file.size())), opt);
  Bytes buf(f.input.size());
  EXPECT_THROW(session.read_at(0, MutableByteSpan(buf.data(), buf.size())),
               CorruptionError);
  EXPECT_TRUE(sleeps.empty());
  EXPECT_EQ(session.stats().retries, 0u);
}

// ---------------------------------------------------------------------------
// Damage tolerance

TEST(DecodeSession, BestEffortReadZeroFillsExactlyTheDamagedBlock) {
  Fixture f;
  f.file[f.file.size() / 2] ^= 0x40;
  serve::SessionOptions opt;
  opt.num_threads = 1;
  DecodeSession session = test::gmpz_session(
      serve::memory_source(ByteSpan(f.file.data(), f.file.size())), opt);

  Bytes got(f.input.size());
  serve::DamageReport report;
  ASSERT_EQ(session.read_at_damage_tolerant(
                0, MutableByteSpan(got.data(), got.size()), &report),
            f.input.size());
  ASSERT_FALSE(report.clean());

  // The damaged extents name exactly one block; every byte outside them
  // is exact, every byte inside is zero.
  std::vector<bool> damaged(f.input.size(), false);
  for (const serve::DamagedExtent& e : report.extents) {
    EXPECT_EQ(e.block, report.extents.front().block);
    EXPECT_NE(e.kind, ErrorKind::kIo);
    EXPECT_FALSE(e.message.empty());
    for (std::uint64_t i = e.offset; i < e.offset + e.length; ++i) {
      damaged[static_cast<std::size_t>(i)] = true;
    }
  }
  for (std::size_t i = 0; i < f.input.size(); ++i) {
    if (damaged[i]) {
      ASSERT_EQ(got[i], 0u) << i;
    } else {
      ASSERT_EQ(got[i], f.input[i]) << i;
    }
  }
  EXPECT_EQ(report.damaged_bytes(), session.stats().bytes_zero_filled);
  EXPECT_GE(session.stats().degraded_reads, 1u);

  // Re-reading hits the known-damaged fast path (no second decode).
  const std::uint64_t decoded_before = session.stats().blocks_decoded;
  serve::DamageReport again;
  session.read_at_damage_tolerant(0, MutableByteSpan(got.data(), got.size()),
                                  &again);
  EXPECT_EQ(again.damaged_bytes(), report.damaged_bytes());
  EXPECT_EQ(session.stats().blocks_decoded, decoded_before);
}

TEST(DecodeSession, VerifyArchiveReportsPerBlockHealth) {
  Fixture f;
  f.file[f.file.size() / 2] ^= 0x40;
  serve::SessionOptions opt;
  opt.num_threads = 1;
  DecodeSession session = test::gmpz_session(
      serve::memory_source(ByteSpan(f.file.data(), f.file.size())), opt);

  const serve::DamageReport report = session.verify_archive();
  ASSERT_FALSE(report.clean());
  const std::size_t bad = report.extents.front().block;
  std::size_t damaged_blocks = 0;
  for (std::size_t b = 0; b < session.num_blocks(); ++b) {
    const serve::BlockHealth h = session.block_health(b);
    if (h == serve::BlockHealth::kDamaged) {
      ++damaged_blocks;
      EXPECT_EQ(b, bad);
    } else {
      EXPECT_EQ(h, serve::BlockHealth::kGood) << b;
    }
  }
  EXPECT_EQ(damaged_blocks, 1u);
  EXPECT_EQ(report.damaged_bytes(), session.block_extent(bad).uncomp_size);
}

TEST(DecodeSession, CleanArchiveVerifiesClean) {
  const Fixture f;
  serve::SessionOptions opt;
  opt.num_threads = 1;
  DecodeSession session = test::gmpz_session(
      serve::memory_source(ByteSpan(f.file.data(), f.file.size())), opt);
  EXPECT_TRUE(session.verify_archive().clean());
  for (std::size_t b = 0; b < session.num_blocks(); ++b) {
    EXPECT_EQ(session.block_health(b), serve::BlockHealth::kGood);
  }
  EXPECT_EQ(session.stats().bytes_zero_filled, 0u);
}

TEST(DecodeSession, BestEffortDegradesExhaustedTransientsWithoutMarkingDamage) {
  const Fixture f;
  auto faulty = wrap(f.file);
  serve::FaultInjectingByteSource* handle = faulty.get();
  serve::SessionOptions opt;
  opt.num_threads = 1;
  opt.retry.max_attempts = 1;
  DecodeSession session = test::gmpz_session(std::move(faulty), opt);
  const std::size_t block0_size = session.block_extent(0).uncomp_size;

  // Enough failures that the first tolerant read degrades block 0...
  handle->inject(
      serve::FaultSpec::transient_at(session.block_extent(0).comp_offset, 1));
  Bytes got(block0_size);
  serve::DamageReport report;
  ASSERT_EQ(session.read_at_damage_tolerant(
                0, MutableByteSpan(got.data(), got.size()), &report),
            block0_size);
  ASSERT_EQ(report.extents.size(), 1u);
  EXPECT_EQ(report.extents[0].kind, ErrorKind::kIo);
  EXPECT_TRUE(std::all_of(got.begin(), got.end(),
                          [](std::uint8_t b) { return b == 0; }));

  // ...but an I/O fault is not damage: the block stays kUnknown and the
  // next tolerant read (fault cleared) recovers the real bytes.
  EXPECT_EQ(session.block_health(0), serve::BlockHealth::kUnknown);
  serve::DamageReport clean;
  ASSERT_EQ(session.read_at_damage_tolerant(
                0, MutableByteSpan(got.data(), got.size()), &clean),
            block0_size);
  EXPECT_TRUE(clean.clean());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), f.input.begin()));
  EXPECT_EQ(session.block_health(0), serve::BlockHealth::kGood);
}

}  // namespace
}  // namespace gompresso
