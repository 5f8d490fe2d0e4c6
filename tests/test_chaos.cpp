// Chaos soak for the serve plane: concurrent readers over sessions whose
// byte source executes randomized fault plans, across both codecs.
//
// Two invariants, both deterministic by construction:
//   - Transient-only plans (per-offset bursts shorter than the retry
//     budget) are fully absorbed: every read succeeds and the output is
//     byte-identical to the input, with zero surfaced errors.
//   - Corruption plans damage a known set of blocks: verify_archive
//     reports exactly those blocks, and best-effort reads recover every
//     byte outside them (zero-filling inside).
//
// Trial counts scale with GOMPRESSO_FUZZ_TRIALS (nightly soak budget).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/gompresso.hpp"
#include "datagen/datasets.hpp"
#include "fuzz_budget.hpp"
#include "gmpz_session.hpp"
#include "net/http.hpp"
#include "net/server.hpp"
#include "serve/fault_source.hpp"
#include "util/rng.hpp"

namespace gompresso {
namespace {

constexpr Codec kCodecs[] = {Codec::kBit, Codec::kByte};

struct Fixture {
  Bytes input;
  Bytes file;

  explicit Fixture(Codec codec, std::size_t size = 150000) {
    input = datagen::wikipedia(size);
    CompressOptions opt;
    opt.codec = codec;
    opt.block_size = 16 * 1024;
    file = compress(input, opt);
  }
};

TEST(Chaos, TransientPlansAreFullyAbsorbedUnderConcurrency) {
  const int trials = testing::fuzz_trials(2);
  for (const Codec codec : kCodecs) {
    const Fixture f(codec);
    for (int trial = 0; trial < trials; ++trial) {
      auto faulty = std::make_unique<serve::FaultInjectingByteSource>(
          serve::memory_source(ByteSpan(f.file.data(), f.file.size())));
      serve::FaultInjectingByteSource* handle = faulty.get();
      serve::SessionOptions opt;
      opt.num_threads = 4;
      opt.max_inflight_blocks = 4;
      opt.cache_blocks = 4;  // small cache forces re-decodes (fresh faults)
      opt.sleep_hook = [](std::uint64_t) {};  // backoff without wall time
      DecodeSession session = test::gmpz_session(std::move(faulty), opt);

      // Armed after the scan; burst 2 < max_attempts 3 makes absorption
      // a certainty, not a probability.
      handle->set_random_transients(/*rate=*/0.3, /*burst=*/2,
                                    /*seed=*/1000u + static_cast<unsigned>(trial));

      const std::uint64_t total = session.size();
      Bytes sequential(total);
      std::atomic<bool> failed{false};
      std::vector<std::thread> readers;
      // One sequential pass through the shared cursor...
      readers.emplace_back([&] {
        try {
          std::size_t done = 0, n;
          Bytes chunk(7000);
          while ((n = session.read(MutableByteSpan(chunk.data(), chunk.size()))) > 0) {
            // read() serializes the cursor, so ranges are consecutive.
            std::copy(chunk.begin(), chunk.begin() + static_cast<long>(n),
                      sequential.begin() + static_cast<long>(done));
            done += n;
          }
          if (done != total) failed = true;
        } catch (...) {
          failed = true;
        }
      });
      // ...plus random positional readers hammering the cache and the
      // retry path concurrently.
      for (int r = 0; r < 3; ++r) {
        readers.emplace_back([&, r] {
          try {
            Rng rng(static_cast<std::uint64_t>(trial * 31 + r + 1));
            Bytes buf(4096);
            for (int i = 0; i < 24; ++i) {
              const std::uint64_t off = rng.next_below(total);
              const std::size_t n = session.read_at(
                  off, MutableByteSpan(buf.data(), buf.size()));
              if (!std::equal(buf.begin(), buf.begin() + static_cast<long>(n),
                              f.input.begin() + static_cast<long>(off))) {
                failed = true;
              }
            }
          } catch (...) {
            failed = true;
          }
        });
      }
      for (std::thread& t : readers) t.join();

      ASSERT_FALSE(failed) << "codec " << static_cast<int>(codec) << " trial "
                           << trial;
      ASSERT_EQ(sequential, f.input);
      const serve::SessionStats st = session.stats();
      EXPECT_EQ(st.permanent_errors, 0u);
      EXPECT_EQ(st.bytes_zero_filled, 0u);
      // The plan did fire (rate 0.3 over dozens of block reads) and was
      // absorbed invisibly.
      EXPECT_GT(handle->stats().transient_failures, 0u);
      EXPECT_EQ(st.retries, st.transient_errors);
    }
  }
}

TEST(Chaos, CorruptionPlansDamageExactlyTheChosenBlocks) {
  const int trials = testing::fuzz_trials(2);
  for (const Codec codec : kCodecs) {
    const Fixture f(codec);
    // Learn block extents from a clean scan so corruption can be aimed
    // at block payloads (never the container header the scan parses).
    const auto clean_source =
        serve::memory_source(ByteSpan(f.file.data(), f.file.size()));
    const serve::SeekIndex index = serve::SeekIndex::build(*clean_source);
    ASSERT_GT(index.num_blocks(), 3u);

    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(7000u + static_cast<unsigned>(trial) * 13u +
              static_cast<unsigned>(codec));
      // Pick 1..3 distinct victim blocks and corrupt a random extent
      // inside each one's compressed bytes.
      std::set<std::size_t> victims;
      const std::size_t num_victims =
          1 + static_cast<std::size_t>(rng.next_below(3));
      while (victims.size() < num_victims) {
        victims.insert(static_cast<std::size_t>(rng.next_below(index.num_blocks())));
      }
      serve::FaultPlan plan;
      for (const std::size_t b : victims) {
        const serve::BlockEntry& e = index.block(b);
        const std::uint64_t len = 1 + rng.next_below(std::min<std::uint64_t>(
                                          e.comp_size, 16));
        const std::uint64_t off =
            e.comp_offset + rng.next_below(e.comp_size - len + 1);
        if (rng.next_below(2) == 0) {
          plan.faults.push_back(serve::FaultSpec::flip(
              off, len, static_cast<std::uint8_t>(1 + rng.next_below(255))));
        } else {
          plan.faults.push_back(serve::FaultSpec::zero_fill(off, len));
        }
      }

      serve::SessionOptions opt;
      opt.num_threads = 2;
      opt.sleep_hook = [](std::uint64_t) {};
      DecodeSession session(
          std::make_unique<serve::FaultInjectingByteSource>(
              serve::memory_source(ByteSpan(f.file.data(), f.file.size())),
              std::move(plan)),
          serve::make_gmpz_backend(serve::SeekIndex(index)), opt);

      // Zero-filling compressed bytes can, rarely, reproduce a block
      // that still decodes (e.g. zeroing bytes that were already zero).
      // Such a block is simply not damaged; drop it from the expectation.
      const serve::DamageReport scrub = session.verify_archive();
      std::set<std::size_t> damaged;
      for (const serve::DamagedExtent& e : scrub.extents) damaged.insert(e.block);
      for (const std::size_t b : damaged) {
        EXPECT_TRUE(victims.count(b) > 0)
            << "block " << b << " damaged but never corrupted";
      }
      for (std::size_t b = 0; b < index.num_blocks(); ++b) {
        const bool is_damaged = damaged.count(b) > 0;
        EXPECT_EQ(session.block_health(b) == serve::BlockHealth::kDamaged,
                  is_damaged)
            << b;
      }

      // Best-effort recovery from concurrent readers: every byte outside
      // a damaged block is exact, every byte inside reads back zero.
      const std::uint64_t total = session.size();
      Bytes got(total, std::uint8_t{0xEE});
      std::atomic<bool> failed{false};
      std::vector<std::thread> readers;
      const std::uint64_t shard = (total + 3) / 4;
      for (int r = 0; r < 4; ++r) {
        readers.emplace_back([&, r] {
          try {
            const std::uint64_t begin = shard * static_cast<std::uint64_t>(r);
            if (begin >= total) return;
            const std::size_t len =
                static_cast<std::size_t>(std::min(shard, total - begin));
            serve::DamageReport report;
            if (session.read_at_damage_tolerant(
                    begin, MutableByteSpan(got.data() + begin, len), &report) !=
                len) {
              failed = true;
            }
          } catch (...) {
            failed = true;
          }
        });
      }
      for (std::thread& t : readers) t.join();
      ASSERT_FALSE(failed);

      for (std::size_t b = 0; b < index.num_blocks(); ++b) {
        const serve::BlockEntry& e = index.block(b);
        const auto begin = got.begin() + static_cast<long>(e.uncomp_offset);
        if (damaged.count(b) > 0) {
          EXPECT_TRUE(std::all_of(begin, begin + static_cast<long>(e.uncomp_size),
                                  [](std::uint8_t v) { return v == 0; }))
              << "damaged block " << b << " not zero-filled";
        } else {
          EXPECT_TRUE(std::equal(begin, begin + static_cast<long>(e.uncomp_size),
                                 f.input.begin() +
                                     static_cast<long>(e.uncomp_offset)))
              << "clean block " << b << " not recovered exactly";
        }
      }
      EXPECT_EQ(session.stats().retries, 0u);  // corruption is never retried
    }
  }
}

// The serve-loop soak: concurrent HTTP clients against a daemon whose
// every session reads through a fault plan (one permanently damaged
// block + scripted transient bursts below the retry budget), with
// overload forced by oversized requests. The invariants are the serve
// plane's whole contract: no crash or hang, every 200/206 byte-exact
// (or explicitly degraded), 502 only for ranges touching the damaged
// block with degraded mode off, every 503 labelled with X-Gomp-Shed,
// and zero 500s.
TEST(Chaos, ServeSoakKeepsTaxonomyAndBytesUnderFaultsAndOverload) {
  const int trials = testing::fuzz_trials(2);
  for (int trial = 0; trial < trials; ++trial) {
    const Codec codec = kCodecs[trial % 3];
    const Fixture f(codec);
    const auto clean_source =
        serve::memory_source(ByteSpan(f.file.data(), f.file.size()));
    const serve::SeekIndex index = serve::SeekIndex::build(*clean_source);
    ASSERT_GT(index.num_blocks(), 3u);

    Rng rng(9000u + static_cast<unsigned>(trial) * 17u);
    const serve::BlockEntry victim = index.block(
        static_cast<std::size_t>(rng.next_below(index.num_blocks())));
    const std::uint64_t dmg_lo = victim.uncomp_offset;
    const std::uint64_t dmg_hi = victim.uncomp_offset + victim.uncomp_size;
    // Persistent damage in the victim's payload, plus transient bursts
    // (2 < max_attempts 3, so retries absorb them invisibly) on the
    // first read of a few other blocks.
    std::string spec =
        "flip@" + std::to_string(victim.comp_offset + victim.comp_size / 2) +
        "+2:0x2a";
    std::set<std::uint64_t> transient_offsets;  // duplicates would stack
    for (int i = 0; i < 5; ++i) {               // bursts past the retry budget
      const serve::BlockEntry& b = index.block(
          static_cast<std::size_t>(rng.next_below(index.num_blocks())));
      if (b.comp_offset == victim.comp_offset) continue;
      transient_offsets.insert(b.comp_offset);
    }
    for (const std::uint64_t off : transient_offsets) {
      spec += ",transient@" + std::to_string(off) + ":2";
    }

    const bool degraded = trial % 2 == 1;
    net::ServeOptions opt;
    opt.port = 0;
    opt.worker_threads = 2;
    opt.decode_threads = 1;
    opt.pending_requests = 4;            // forces queue pressure
    opt.max_response_bytes = 64 * 1024;  // whole-archive GETs must shed
    opt.degraded = degraded;
    opt.session.sleep_hook = [](std::uint64_t) {};  // backoff without wall time
    net::Server server(
        [&f, spec] {
          return std::unique_ptr<serve::ByteSource>(
              std::make_unique<serve::FaultInjectingByteSource>(
                  serve::memory_source(ByteSpan(f.file.data(), f.file.size())),
                  serve::FaultPlan::parse(spec)));
        },
        serve::make_gmpz_backend(index), opt);
    server.start();

    const std::uint64_t total = f.input.size();
    std::mutex mu;
    std::vector<std::string> failures;
    const auto fail = [&](std::string what) {
      std::lock_guard<std::mutex> lock(mu);
      failures.push_back(std::move(what));
    };

    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
      clients.emplace_back([&, c] {
        try {
          Rng crng(static_cast<std::uint64_t>(trial) * 101u +
                   static_cast<std::uint64_t>(c) + 1u);
          auto client = std::make_unique<net::HttpClient>(server.port());
          int reconnects = 0;
          for (int i = 0; i < 15; ++i) {
            // First request aims straight at the damaged block so the
            // 502/degraded path fires deterministically; every fifth is
            // an oversized whole-archive GET that must be shed.
            const bool oversized = i % 5 == 4;
            std::uint64_t off = 0, len = 0;
            std::vector<std::string> extra;
            if (!oversized) {
              if (i == 0) {
                off = dmg_lo;
                len = std::min<std::uint64_t>(victim.uncomp_size, 2048);
              } else {
                len = 1 + crng.next_below(32 * 1024);
                off = crng.next_below(total - len);
              }
              extra.push_back("Range: bytes=" + std::to_string(off) + "-" +
                              std::to_string(off + len - 1));
            }
            net::HttpResponse resp;
            if (!client->alive()) {
              client = std::make_unique<net::HttpClient>(server.port());
            }
            if (!client->get("/archive", extra, resp)) {
              // Sheds and reaps close the connection; reconnect and
              // retry the same request shape.
              if (++reconnects > 100) {
                fail("client " + std::to_string(c) + ": reconnect storm");
                return;
              }
              client = std::make_unique<net::HttpClient>(server.port());
              --i;
              continue;
            }
            const bool touches_damage = !oversized &&
                off < dmg_hi && off + len > dmg_lo;
            switch (resp.status) {
              case 206: {
                if (touches_damage && !degraded) {
                  fail("206 over damaged range with degraded mode off");
                  break;
                }
                if (resp.body.size() != len) {
                  fail("206 length mismatch");
                  break;
                }
                const std::string* deg = resp.header("x-gomp-degraded");
                if (deg != nullptr && !degraded) {
                  fail("degraded header from a non-degraded server");
                  break;
                }
                for (std::uint64_t p = 0; p < len; ++p) {
                  const std::uint64_t abs = off + p;
                  const bool in_damage = abs >= dmg_lo && abs < dmg_hi;
                  const auto byte =
                      static_cast<std::uint8_t>(resp.body[static_cast<std::size_t>(p)]);
                  const std::uint8_t want =
                      in_damage && deg != nullptr ? std::uint8_t{0}
                                                  : f.input[static_cast<std::size_t>(abs)];
                  if (byte != want) {
                    fail("byte mismatch at " + std::to_string(abs) + " off=" +
                         std::to_string(off) + " len=" + std::to_string(len) +
                         " dmg=[" + std::to_string(dmg_lo) + "," +
                         std::to_string(dmg_hi) + ") deg=" +
                         (deg ? *deg : "none") + " got=" +
                         std::to_string(byte) + " want=" + std::to_string(want));
                    break;
                  }
                }
                break;
              }
              case 502:
                if (degraded) fail("502 from a degraded-mode server");
                if (!touches_damage) fail("502 for an undamaged range");
                break;
              case 503:
                if (resp.header("x-gomp-shed") == nullptr) {
                  fail("503 without X-Gomp-Shed");
                }
                break;
              default:
                fail("unexpected status " + std::to_string(resp.status));
            }
          }
        } catch (const std::exception& e) {
          fail("client " + std::to_string(c) + " exception: " + e.what());
        }
      });
    }
    for (std::thread& t : clients) t.join();
    server.stop();

    for (const std::string& what : failures) ADD_FAILURE() << what;
    const net::ServerStats st = server.stats();
    EXPECT_EQ(st.error_500, 0u);
    EXPECT_GT(st.requests, 0u);
    EXPECT_GT(st.shed_503, 0u);  // the oversized GETs
    if (degraded) {
      EXPECT_GT(st.degraded_responses, 0u);
      EXPECT_EQ(st.failed_502, 0u);
    } else {
      EXPECT_GT(st.failed_502, 0u);
      EXPECT_EQ(st.degraded_responses, 0u);
    }
  }
}

}  // namespace
}  // namespace gompresso
