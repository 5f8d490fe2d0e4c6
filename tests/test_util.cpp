// Unit tests for src/util: CRC32, varints, RNG, Zipf, thread pool,
// arithmetic helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <thread>

#include "util/bounded_queue.hpp"
#include "util/buffer_pool.hpp"
#include "util/byte_reader.hpp"
#include "util/common.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/varint.hpp"

namespace gompresso {
namespace {

TEST(Crc32, KnownVectors) {
  // Standard test vector: CRC-32("123456789") = 0xCBF43926.
  const std::string s = "123456789";
  EXPECT_EQ(crc32(as_bytes(s)), 0xCBF43926u);
  const std::string empty;
  EXPECT_EQ(crc32(as_bytes(empty)), 0u);
  const std::string a = "a";
  EXPECT_EQ(crc32(as_bytes(a)), 0xE8B7BE43u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  Rng rng(1);
  Bytes data(1000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u32());
  const std::uint32_t whole = crc32(data);
  for (const std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{499},
                                  std::size_t{999}, std::size_t{1000}}) {
    const std::uint32_t part1 = crc32(ByteSpan(data.data(), split));
    const std::uint32_t part2 = crc32(ByteSpan(data.data() + split, 1000 - split), part1);
    EXPECT_EQ(part2, whole) << "split=" << split;
  }
}

TEST(Crc32, CombineMatchesConcatenationOverRandomSplits) {
  Rng rng(7);
  Bytes data(100000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u32());
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t len = 1 + rng.next_below(data.size());
    const std::size_t split = rng.next_below(len + 1);
    const ByteSpan a(data.data(), split);
    const ByteSpan b(data.data() + split, len - split);
    EXPECT_EQ(crc32_combine(crc32(a), crc32(b), b.size()),
              crc32(ByteSpan(data.data(), len)))
        << "len=" << len << " split=" << split;
  }
}

TEST(Crc32, CombineWithEmptyParts) {
  const std::string s = "123456789";
  const std::uint32_t crc = crc32(as_bytes(s));
  EXPECT_EQ(crc32_combine(0, crc, s.size()), crc);  // empty first part
  EXPECT_EQ(crc32_combine(crc, 0, 0), crc);         // empty second part
  EXPECT_EQ(crc32_combine(0, 0, 0), 0u);
}

TEST(Crc32, CombineIsAssociativeBeyond4GiB) {
  // Lengths past 2^32 exercise the wrap of the x^(2^k) power table; a
  // wrong period would break associativity.
  Rng rng(11);
  constexpr std::uint64_t k4G = std::uint64_t{1} << 32;
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint32_t a = rng.next_u32(), b = rng.next_u32(), c = rng.next_u32();
    const std::uint64_t len_b = k4G * (1 + rng.next_below(7)) + rng.next_u32();
    const std::uint64_t len_c = k4G * rng.next_below(5) + rng.next_u32();
    EXPECT_EQ(crc32_combine(crc32_combine(a, b, len_b), c, len_c),
              crc32_combine(a, crc32_combine(b, c, len_c), len_b + len_c))
        << "len_b=" << len_b << " len_c=" << len_c;
  }
}

TEST(Crc32, DetectsSingleBitFlips) {
  Bytes data(64, 0xAB);
  const std::uint32_t base = crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 1;
    EXPECT_NE(crc32(data), base) << "flip at " << i;
    data[i] ^= 1;
  }
}

TEST(Varint, RoundTripBoundaries) {
  const std::uint64_t values[] = {0,    1,    127,  128,   16383, 16384,
                                  1 << 21, (1ull << 35) - 1, 0xFFFFFFFFFFFFFFFFull};
  for (const auto v : values) {
    Bytes buf;
    put_varint(buf, v);
    std::size_t pos = 0;
    EXPECT_EQ(get_varint(buf, pos), v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(Varint, EncodedSizeIsMinimal) {
  Bytes buf;
  put_varint(buf, 127);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  put_varint(buf, 128);
  EXPECT_EQ(buf.size(), 2u);
  buf.clear();
  put_varint(buf, 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(buf.size(), 10u);
}

TEST(Varint, TruncatedInputThrows) {
  Bytes buf;
  put_varint(buf, 1u << 30);
  buf.pop_back();
  std::size_t pos = 0;
  EXPECT_THROW(get_varint(buf, pos), Error);
}

TEST(Varint, U32RoundTrip) {
  Bytes buf;
  put_u32le(buf, 0xDEADBEEFu);
  std::size_t pos = 0;
  EXPECT_EQ(get_u32le(buf, pos), 0xDEADBEEFu);
  EXPECT_EQ(pos, 4u);
  pos = 2;
  EXPECT_THROW(get_u32le(buf, pos), Error);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LE(same, 1);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (const std::uint64_t bound : {1ull, 2ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Zipf, RankZeroIsMostFrequent) {
  Rng rng(11);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[50]);
  EXPECT_GT(counts[1], counts[50]);
}

TEST(Zipf, CoversTail) {
  Rng rng(13);
  ZipfSampler zipf(50, 0.8);
  std::set<std::size_t> seen;
  for (int i = 0; i < 20000; ++i) seen.insert(zipf.sample(rng));
  EXPECT_GT(seen.size(), 40u);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroAndOneCounts) {
  ThreadPool pool(4);
  std::atomic<int> n{0};
  pool.parallel_for(0, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 0);
  pool.parallel_for(1, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 1);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 37) throw Error("boom");
                                 }),
               Error);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(64, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 64u * 63u / 2);
  }
}

TEST(ThreadPool, WorkerIndicesAreBoundedAndExclusive) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.parallelism(), 4u);
  std::vector<std::atomic<int>> per_worker(pool.parallelism());
  std::atomic<int> total{0};
  pool.parallel_for_worker(500, [&](std::size_t worker, std::size_t) {
    ASSERT_LT(worker, pool.parallelism());
    per_worker[worker].fetch_add(1);
    total.fetch_add(1);
  });
  EXPECT_EQ(total.load(), 500);
}

TEST(ThreadPool, ChunkedCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(777);
  pool.parallel_for_chunked(777, 13, [&](std::size_t begin, std::size_t end) {
    ASSERT_LE(end, 777u);
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedSamePoolRunsInlineWithEnclosingIndex) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.parallel_for_worker(8, [&](std::size_t outer_worker, std::size_t) {
    pool.parallel_for_worker(10, [&](std::size_t inner_worker, std::size_t) {
      // Same pool: the nested call must keep the enclosing worker's
      // identity so per-worker slots stay exclusive.
      ASSERT_EQ(inner_worker, outer_worker);
      inner_total.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_total.load(), 8 * 10);
}

TEST(ThreadPool, NestedDifferentPoolDispatchesWithOwnBounds) {
  // A job in pool A calling pool B must respect B's (smaller) worker
  // index space — regression for the cross-pool inline-index bug.
  ThreadPool outer(4);
  ThreadPool inner(2);
  std::atomic<int> inner_total{0};
  outer.parallel_for(6, [&](std::size_t) {
    inner.parallel_for_worker(20, [&](std::size_t worker, std::size_t) {
      ASSERT_LT(worker, inner.parallelism());
      inner_total.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_total.load(), 6 * 20);
}

TEST(ThreadPool, SingleThreadFallback) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 0u);  // caller-only execution
  std::vector<int> hits(50, 0);
  pool.parallel_for(50, [&](std::size_t i) { hits[i]++; });
  for (const auto h : hits) EXPECT_EQ(h, 1);
}

TEST(CommonHelpers, Arithmetic) {
  EXPECT_EQ(div_ceil(10, 3), 4);
  EXPECT_EQ(div_ceil(9, 3), 3);
  EXPECT_EQ(div_ceil<std::uint64_t>(0, 5), 0u);
  // Must not wrap for dividends near the type maximum (untrusted sizes).
  EXPECT_EQ(div_ceil<std::uint64_t>(~0ull, 2), (1ull << 63));
  EXPECT_EQ(round_up(10, 8), 16);
  EXPECT_EQ(round_up(16, 8), 16);
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(1023), 9u);
  EXPECT_EQ(floor_log2(1024), 10u);
}

TEST(CommonHelpers, CountLeadingZeros) {
  EXPECT_EQ(count_leading_zeros(0), 32);
  EXPECT_EQ(count_leading_zeros(1), 31);
  EXPECT_EQ(count_leading_zeros(0x80000000u), 0);
}

TEST(CommonHelpers, CheckThrows) {
  EXPECT_NO_THROW(check(true, "ok"));
  EXPECT_THROW(check(false, "bad"), Error);
}

TEST(ThreadPoolSubmit, TasksRunAndComplete) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&] { ++done; });
    }
  }  // destruction joins workers and drains whatever they did not reach
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolSubmit, SynchronousWithoutWorkers) {
  ThreadPool pool(1);
  EXPECT_FALSE(pool.async());
  int hits = 0;
  pool.submit([&] { ++hits; });
  EXPECT_EQ(hits, 1);  // ran inline, already visible
}

TEST(ThreadPoolSubmit, InterleavesWithParallelFor) {
  std::atomic<int> task_hits{0};
  std::atomic<int> for_hits{0};
  {
    ThreadPool pool(3);
    for (int round = 0; round < 5; ++round) {
      for (int i = 0; i < 10; ++i) pool.submit([&] { ++task_hits; });
      pool.parallel_for(20, [&](std::size_t) { ++for_hits; });
    }
  }
  EXPECT_EQ(task_hits.load(), 50);
  EXPECT_EQ(for_hits.load(), 100);
}

TEST(BoundedQueue, FifoOrderAndBackpressure) {
  util::BoundedQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.push(i));
  EXPECT_EQ(q.size(), 4u);
  // A full queue blocks push; a consumer thread unblocks it.
  std::thread consumer([&] {
    int v;
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(q.pop(v));
      EXPECT_EQ(v, i);
    }
  });
  EXPECT_TRUE(q.push(4));  // may block until the consumer drains one
  consumer.join();
  EXPECT_TRUE(q.empty());
}

TEST(BoundedQueue, CloseReleasesProducersAndConsumers) {
  util::BoundedQueue<int> q(2);
  EXPECT_TRUE(q.push(1));
  q.close();
  EXPECT_FALSE(q.push(2));  // rejected after close
  int v = 0;
  EXPECT_TRUE(q.pop(v));  // queued items still drain
  EXPECT_EQ(v, 1);
  EXPECT_FALSE(q.pop(v));  // then pop reports closed
  EXPECT_FALSE(q.try_pop(v));
}

TEST(BoundedQueue, ManyProducersManyConsumers) {
  util::BoundedQueue<int> q(8);
  std::atomic<long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < 3; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < 50; ++i) q.push(p * 50 + i);
    });
  }
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      int v;
      while (popped.load() < 150 && q.pop(v)) {
        sum += v;
        if (popped.fetch_add(1) + 1 == 150) q.close();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(popped.load(), 150);
  EXPECT_EQ(sum.load(), 150L * 149 / 2);
}

TEST(BufferPool, ReusesCapacityAndCountsPeaks) {
  util::BufferPool pool;
  {
    util::PooledBuffer a = pool.acquire(1000);
    util::PooledBuffer b = pool.acquire(2000);
    EXPECT_EQ(a.size(), 1000u);
    EXPECT_EQ(b.size(), 2000u);
    const auto st = pool.stats();
    EXPECT_EQ(st.outstanding, 2u);
    EXPECT_EQ(st.allocations, 2u);
    EXPECT_GE(st.peak_outstanding_bytes, 3000u);
  }
  // Both buffers returned; re-acquiring within capacity allocates nothing.
  for (int i = 0; i < 10; ++i) {
    util::PooledBuffer c = pool.acquire(1500);
    EXPECT_EQ(c.size(), 1500u);
  }
  const auto st = pool.stats();
  EXPECT_EQ(st.outstanding, 0u);
  EXPECT_EQ(st.allocations, 2u);
  EXPECT_EQ(st.reuses, 10u);
  EXPECT_EQ(st.peak_outstanding, 2u);
}

TEST(BufferPool, MoveTransfersOwnership) {
  util::BufferPool pool;
  util::PooledBuffer a = pool.acquire(100);
  util::PooledBuffer b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(pool.stats().outstanding, 1u);
  b.reset();
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

TEST(ByteReader, SpanReaderPrimitives) {
  Bytes data;
  put_u32le(data, 0xDEADBEEFu);
  put_varint(data, 0);
  put_varint(data, 300);
  put_varint(data, 0xFFFFFFFFFFFFFFFFull);
  data.push_back(0x42);
  util::SpanReader r{ByteSpan(data)};
  EXPECT_EQ(r.read_u32le(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_varint(), 0u);
  EXPECT_EQ(r.read_varint(), 300u);
  EXPECT_EQ(r.read_varint(), 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(r.read_u8(), 0x42);
  EXPECT_EQ(r.offset(), data.size());
  EXPECT_TRUE(r.at_end());
  EXPECT_THROW(r.read_u8(), Error);
}

TEST(ByteReader, IstreamReaderMatchesSpanReaderAndSkips) {
  Bytes data(100000);
  Rng rng(3);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u32());
  std::istringstream in(std::string(data.begin(), data.end()));
  util::IstreamReader r(in, /*buffer_size=*/257);  // awkward size on purpose
  Bytes head(1000);
  r.read_exact(MutableByteSpan(head.data(), head.size()));
  EXPECT_TRUE(std::equal(head.begin(), head.end(), data.begin()));
  r.skip(50000);
  EXPECT_EQ(r.offset(), 51000u);
  EXPECT_EQ(r.read_u8(), data[51000]);
  r.skip(data.size() - 51001);
  EXPECT_TRUE(r.at_end());
}

TEST(ByteReader, TruncatedVarintThrows) {
  const Bytes data = {0x80, 0x80};  // continuation bits with no terminator
  util::SpanReader r{ByteSpan(data)};
  EXPECT_THROW(r.read_varint(), Error);
}

}  // namespace
}  // namespace gompresso
