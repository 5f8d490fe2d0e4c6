// Serve-subsystem benchmark + trajectory emitter (BENCH_serve.json).
//
// Measures the streaming DecodeSession against batch decompress() on the
// same file and enforces the subsystem's acceptance gates:
//
//   * memory bound (hard): the session's pooled-buffer peak must stay
//     within (window + cache + slack) x (block + max compressed block)
//     bytes — a formula with no file-size term — while streaming a file
//     of kFullBytes (256 MiB by default, the ISSUE-2 acceptance size).
//     The BufferPool counters are the witness; every decoded byte flows
//     through pool buffers.
//   * correctness (hard): the streamed bytes and randomized read_at
//     slices are byte-identical to batch decompress() output.
//   * throughput (timing): sequential streaming >= 0.8x batch decode.
//     Like bench_decode_hotpath's 1.5x gate, CI treats a timing-gate
//     failure on shared runners as a warning; the JSON is written first.
//
// Also reports cold-seek latency: a fresh session (index scan included)
// serving 4 KiB from a random offset — the "time to first byte" of a
// range request against a cold cache.
//
// Run with --quick for the CI smoke configuration (16 MiB input).
#include <cstring>
#include <fstream>
#include <string>

#include "bench/bench_util.hpp"
#include "core/gompresso.hpp"
#include "datagen/datasets.hpp"
#include "serve/fault_source.hpp"
#include "util/rng.hpp"

namespace gompresso::bench {
namespace {

constexpr std::size_t kFullBytes = 256 * 1024 * 1024;
constexpr std::size_t kQuickBytes = 16 * 1024 * 1024;
const char* kCompressedPath = "/tmp/gompresso_bench_serve.gmp";

/// Pool-byte budget for a session over `index`: window in-flight decodes
/// (each holding one decoded block + one compressed staging buffer), the
/// LRU cache, one demanded block beyond the window, and one copy-loop's
/// slack. Deliberately independent of the number of blocks in the file.
std::uint64_t pool_budget(const serve::SeekIndex& index,
                          const serve::SessionOptions& opt) {
  std::uint64_t max_comp = 0;
  std::uint64_t max_block = 0;
  for (std::size_t s = 0; s < index.num_segments(); ++s) {
    max_block = std::max<std::uint64_t>(max_block, index.segment_header(s).block_size);
  }
  for (std::size_t b = 0; b < index.num_blocks(); ++b) {
    max_comp = std::max(max_comp, index.block(b).comp_size);
  }
  const std::uint64_t window = std::max<std::size_t>(1, opt.max_inflight_blocks);
  const std::uint64_t cache = std::max(opt.cache_blocks, opt.max_inflight_blocks);
  return (window + 1) * (max_block + max_comp) + cache * max_block + max_block;
}

void assert_memory_bound(const DecodeSession& session,
                         const serve::SessionOptions& opt, const char* what) {
  const util::BufferPool::Stats pool = session.stats().pool;
  const std::uint64_t budget = pool_budget(*session.backend().seek_index(), opt);
  std::printf("%-28s peak pooled %.2f MiB (budget %.2f MiB, %zu buffers)\n", what,
              pool.peak_outstanding_bytes / 1048576.0, budget / 1048576.0,
              pool.peak_outstanding);
  check(pool.peak_outstanding_bytes <= budget,
        "bench: session exceeded its O(window x block) memory budget");
}

/// A session over the bench file, opened the production way.
std::unique_ptr<DecodeSession> open_bench_file(const serve::SessionOptions& opt) {
  OpenOptions oopt;
  oopt.session = opt;
  return gompresso::open(serve::open_file_source(kCompressedPath), oopt);
}

}  // namespace
}  // namespace gompresso::bench

int main(int argc, char** argv) {
  using namespace gompresso;
  using namespace gompresso::bench;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::size_t bytes = quick ? kQuickBytes : kFullBytes;
  const int reps = 3;

  print_header("Serve subsystem: streaming sessions vs batch decode");
  std::printf("input: %.0f MiB zipf-text (%s)\n", bytes / 1048576.0,
              quick ? "--quick" : "full");

  const Bytes input = datagen::wikipedia(bytes);
  const Bytes file = compress(input);
  {
    std::ofstream out(kCompressedPath, std::ios::binary);
    check(out.good(), "bench: cannot write /tmp");
    out.write(reinterpret_cast<const char*>(file.data()),
              static_cast<std::streamsize>(file.size()));
  }
  JsonReport report("serve", "zipf-text", reps);

  // --- batch baseline ---------------------------------------------------
  DecompressOptions dopt;
  dopt.verify_checksums = false;
  DecompressResult batch;
  const double batch_sec = time_median_of(reps, [&] { batch = decompress(file, dopt); });
  check(batch.data == input, "bench: batch roundtrip mismatch");
  report.add("batch/decompress", batch_sec, input.size());
  std::printf("%-28s %14.1f MB/s\n", "batch/decompress", input.size() / 1e6 / batch_sec);

  // --- streaming sequential ---------------------------------------------
  serve::SessionOptions sopt;
  sopt.verify_checksums = false;
  Bytes chunk(kStreamCopyChunk);
  const auto stream_once = [&](bool verify) {
    const auto session = open_bench_file(sopt);
    std::uint64_t off = 0;
    std::size_t n;
    while ((n = session->read(MutableByteSpan(chunk.data(), chunk.size()))) > 0) {
      if (verify) {
        check(std::memcmp(chunk.data(), input.data() + off, n) == 0,
              "bench: streamed bytes differ from the input");
      }
      off += n;
    }
    check(off == input.size(), "bench: streamed size mismatch");
    // The memory gate rides along on every run — it must hold for the
    // full kFullBytes input, proving the bound has no file-size term.
    assert_memory_bound(*session, sopt, "serve/sequential");
  };
  stream_once(/*verify=*/true);  // correctness gate (hard), also warm-up
  const double stream_sec = time_median_of(reps, [&] { stream_once(false); });
  report.add("serve/sequential", stream_sec, input.size());
  std::printf("%-28s %14.1f MB/s\n", "serve/sequential",
              input.size() / 1e6 / stream_sec);

  // --- degraded mode: sequential stream under a 1% transient-fault plan ---
  // Every block read has a 1% chance of one transient failure (burst 1 <
  // max_attempts 3, so the retry layer absorbs all of them); throughput
  // must stay >= 0.9x the fault-free stream. This prices the whole
  // robustness path — the harness decorator on every read, the retry
  // bookkeeping, and the occasional backoff sleep — under load.
  std::uint64_t degraded_transients = 0;
  const auto stream_degraded_once = [&](bool verify) {
    auto faulty = std::make_unique<serve::FaultInjectingByteSource>(
        serve::open_file_source(kCompressedPath));
    serve::FaultInjectingByteSource* handle = faulty.get();
    // The index scan reads through the fault harness too (faults arm
    // after it, below).
    auto backend = serve::make_gmpz_backend(serve::SeekIndex::build(*faulty),
                                            sopt.verify_checksums);
    DecodeSession session(std::move(faulty), std::move(backend), sopt);
    handle->set_random_transients(/*rate=*/0.01, /*burst=*/1, /*seed=*/1234);
    const obs::MetricsSnapshot before = metrics_snapshot();
    std::uint64_t off = 0;
    std::size_t n;
    while ((n = session.read(MutableByteSpan(chunk.data(), chunk.size()))) > 0) {
      if (verify) {
        check(std::memcmp(chunk.data(), input.data() + off, n) == 0,
              "bench: degraded stream bytes differ from the input");
      }
      off += n;
    }
    check(off == input.size(), "bench: degraded stream size mismatch");
    const obs::MetricsSnapshot after = metrics_snapshot();
    const auto added = [&](const char* name) {
      return after.counter(name) - before.counter(name);
    };
    check(added("serve.permanent_errors") == 0 &&
              added("serve.bytes_zero_filled") == 0,
          "bench: transient-only plan must surface no permanent damage");
    degraded_transients = handle->stats().transient_failures;
  };
  stream_degraded_once(/*verify=*/true);  // correctness gate (hard)
  const double degraded_sec = time_median_of(reps, [&] { stream_degraded_once(false); });
  report.add("serve/degraded_1pct", degraded_sec, input.size());
  std::printf("%-28s %14.1f MB/s (%llu transient faults absorbed)\n",
              "serve/degraded_1pct", input.size() / 1e6 / degraded_sec,
              static_cast<unsigned long long>(degraded_transients));

  // --- warm random access ------------------------------------------------
  {
    const auto session = open_bench_file(sopt);
    Rng rng(99);
    constexpr std::size_t kProbe = 64 * 1024;
    Bytes got(kProbe);
    // Correctness: randomized read_at against batch-decode slices (the
    // ISSUE-2 acceptance fuzz at bench scale).
    std::uint64_t probes = 0;
    const double random_sec = time_median_of(reps, [&] {
      for (int i = 0; i < 64; ++i) {
        const std::uint64_t off = rng.next_below(input.size());
        const std::size_t n =
            session->read_at(off, MutableByteSpan(got.data(), got.size()));
        check(n == std::min<std::uint64_t>(kProbe, input.size() - off),
              "bench: read_at length mismatch");
        check(std::memcmp(got.data(), input.data() + off, n) == 0,
              "bench: read_at bytes differ from batch decode");
        probes += n;
      }
    });
    report.add("serve/random_64k", random_sec, probes / (reps + 1));
    std::printf("%-28s %14.1f MB/s\n", "serve/random_64k",
                probes / (reps + 1) / 1e6 / random_sec);
    assert_memory_bound(*session, sopt, "serve/random_64k");
  }

  // --- cold-seek latency -------------------------------------------------
  {
    Rng rng(7);
    std::vector<double> samples;
    Bytes got(4096);
    for (int i = 0; i < (quick ? 8 : 16); ++i) {
      const std::uint64_t off = rng.next_below(input.size());
      Stopwatch t;
      const auto session = open_bench_file(sopt);
      const std::size_t n = session->read_at(off, MutableByteSpan(got.data(), got.size()));
      samples.push_back(t.seconds());
      check(n > 0 && std::memcmp(got.data(), input.data() + off, n) == 0,
            "bench: cold seek returned wrong bytes");
    }
    std::sort(samples.begin(), samples.end());
    const double median = samples[samples.size() / 2];
    report.add("serve/cold_open_read4k", median, 4096);
    std::printf("%-28s %14.3f ms median (open + index + 1 block)\n",
                "serve/cold_open_read4k", median * 1e3);
  }

  // Write the trajectory before the timing gate so the JSON artifact
  // survives a gate failure on a noisy runner.
  report.write("BENCH_serve.json");

  // --- throughput gate ----------------------------------------------------
  double ratio = batch_sec / stream_sec;
  for (int attempt = 0; attempt < 2 && ratio < 0.8; ++attempt) {
    std::printf("stream/batch ratio %.2fx below gate — remeasuring (attempt %d)\n",
                ratio, attempt + 1);
    const double b2 = time_median_of(reps, [&] { batch = decompress(file, dopt); });
    const double s2 = time_median_of(reps, [&] { stream_once(false); });
    ratio = std::max(ratio, b2 / s2);
  }
  std::printf("streaming throughput: %.2fx of batch (gate: >= 0.8x)\n", ratio);

  // --- degraded-throughput gate -------------------------------------------
  double degraded_ratio = stream_sec / degraded_sec;
  for (int attempt = 0; attempt < 2 && degraded_ratio < 0.9; ++attempt) {
    std::printf("degraded/fault-free ratio %.2fx below gate — remeasuring (attempt %d)\n",
                degraded_ratio, attempt + 1);
    const double s2 = time_median_of(reps, [&] { stream_once(false); });
    const double d2 = time_median_of(reps, [&] { stream_degraded_once(false); });
    degraded_ratio = std::max(degraded_ratio, s2 / d2);
  }
  std::printf("degraded throughput: %.2fx of fault-free (gate: >= 0.9x)\n",
              degraded_ratio);
  std::remove(kCompressedPath);
  check(ratio >= 0.8, "bench: streaming below the 0.8x acceptance gate");
  check(degraded_ratio >= 0.9,
        "bench: degraded stream below the 0.9x acceptance gate");
  return 0;
}
