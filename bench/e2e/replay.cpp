// Isolated replays (traced runs only): single layers driven alone
// through front doors on the run's own inputs, each rate also given as
// a ratio to a memcpy roofline measured in the same process.
#include <cstring>
#include <functional>
#include <memory>

#include "e2e.hpp"
#include "util/crc32.hpp"

namespace gomp_bench {
namespace {

double median_time(int reps, const std::function<void()>& fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    s.push_back(seconds_between(t0, Clock::now()));
  }
  return median(s);
}

/// Median time of open() alone (the session is torn down untimed).
double open_time(const std::string& path, std::size_t threads) {
  gompresso::OpenOptions opt;
  opt.session.num_threads = threads;
  std::vector<double> s;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    const auto session = gompresso::open(path, opt);
    s.push_back(seconds_between(t0, Clock::now()));
  }
  return median(s);
}

}  // namespace

void run_replays(const Config& cfg, const Inputs& in, Report& r) {
  const Bytes& plain = in.plain;
  const double mb = static_cast<double>(plain.size()) / kMB;

  Bytes dst(plain);  // touches every destination page before timing
  const double memcpy_MBps =
      mb / median_time(5, [&] { std::memcpy(dst.data(), plain.data(), plain.size()); });
  if (dst != plain) r.mismatch("memcpy replay differs");
  r.layer("roofline.memcpy_MBps", memcpy_MBps, "MB/s");

  std::uint32_t crc = 0;
  const double crc_MBps = mb / median_time(3, [&] { crc = gompresso::crc32(plain); });
  if (crc != gompresso::crc32(dst)) r.mismatch("crc32 replay is not deterministic");
  r.layer("util.crc32_MBps", crc_MBps, "MB/s");
  r.layer("util.crc32_memcpy_ratio", crc_MBps / memcpy_MBps, "ratio");

  if (cfg.workload == "native_scan" || cfg.workload == "range_serve") {
    const Bytes file = read_file(in.gmpz_path);
    gompresso::DecompressOptions opt;
    opt.num_threads = 1;
    const double MBps =
        mb / median_time(3, [&] { dst = gompresso::decompress(file, opt).data; });
    if (dst != plain) r.mismatch("decompress() replay differs");
    r.layer("core.decompress_1T_MBps", MBps, "MB/s");
    r.layer("core.decompress_1T_memcpy_ratio", MBps / memcpy_MBps, "ratio");
  }

  if (cfg.workload == "gzip_scan") {
    const double one = open_time(in.gz_path, 1);
    r.layer("ingest.build_1T_s", one, "s");
    r.layer("ingest.build_speedup", one / open_time(in.gz_path, cfg.threads), "ratio");

    // Every chunk once, on this thread, through the backend alone.
    const auto source = gompresso::serve::open_file_source(in.gz_path);
    gompresso::OpenOptions opt;
    opt.session.num_threads = cfg.threads;
    const auto backend = gompresso::open_backend(*source, opt);
    gompresso::util::BufferPool buffers;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t b = 0; b < backend->num_blocks(); ++b) {
      const gompresso::serve::BackendBlock blk = backend->block(b);
      if (blk.uncomp_offset + blk.uncomp_size > dst.size()) {
        r.mismatch("gzip chunk table runs past the plaintext");
        return;
      }
      backend->decode_block(b, *source, buffers,
                            gompresso::MutableByteSpan(dst.data() + blk.uncomp_offset,
                                                       blk.uncomp_size));
    }
    const double MBps = mb / seconds_between(t0, Clock::now());
    if (dst != plain) r.mismatch("gzip chunk-decode replay differs");
    r.layer("ingest.chunk_decode_MBps", MBps, "MB/s");
    r.layer("ingest.chunk_decode_memcpy_ratio", MBps / memcpy_MBps, "ratio");
  }
}

}  // namespace gomp_bench
