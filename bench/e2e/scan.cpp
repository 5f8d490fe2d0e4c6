// native_scan and gzip_scan: the analytics scan. Each operation is one
// pass — open() the archive, then read() it to the end in 1 MiB chunks,
// comparing every byte with the plaintext. A pass is what an analytics
// query waits for, so its time is the latency, and open() is inside it:
// work moved from reading into set-up cannot look like a gain.
#include <algorithm>
#include <filesystem>
#include <memory>

#include "e2e.hpp"

namespace gomp_bench {
namespace {

struct Pass {
  double open_s = 0;
  double total_s = 0;  // open() through the last byte
  std::uint64_t buffer_peak_bytes = 0;
  double mean_block_bytes = 0;
};

/// One pass; empty when the bytes differ (the mismatch is in `r`).
std::optional<Pass> scan_once(const std::string& path,
                              const gompresso::OpenOptions& opt, const Bytes& plain,
                              Report& r) {
  Pass p;
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<gompresso::serve::DecodeSession> session;
  {
    gompresso::obs::TraceSpan span("open", "bench");
    session = gompresso::open(path, opt);
  }
  p.open_s = seconds_between(t0, Clock::now());
  if (!read_and_compare(*session, plain, r)) return std::nullopt;
  p.total_s = seconds_between(t0, Clock::now());
  p.buffer_peak_bytes = session->stats().pool.peak_outstanding_bytes;
  p.mean_block_bytes = mean_block_bytes(*session);
  return p;
}

}  // namespace

void run_scan(const Config& cfg, const Inputs& in, bool gzip, Report& r) {
  const std::string& path = gzip ? in.gz_path : in.gmpz_path;
  gompresso::OpenOptions opt;
  opt.session.num_threads = cfg.threads;

  const Clock::time_point warm = Clock::now();
  do {
    scan_once(path, opt, in.plain, r);
  } while (r.correct && seconds_between(warm, Clock::now()) < cfg.warmup);

  std::vector<Pass> passes;
  gompresso::obs::MetricsSnapshot before = gompresso::metrics_snapshot();
  TraceWindow tw(cfg);
  const Clock::time_point start = Clock::now();
  while (r.correct) {
    ++r.attempted;
    try {
      if (auto p = scan_once(path, opt, in.plain, r)) passes.push_back(*p);
    } catch (const std::exception& e) {
      ++r.failed;
      r.notes.push_back(std::string("pass failed: ") + e.what());
    }
    tw.stop_if_due();
    if (seconds_between(start, Clock::now()) >= cfg.seconds) break;
  }
  const double wall = seconds_between(start, Clock::now());
  r.traced_s = tw.stop();
  const RegistryDelta delta(std::move(before), gompresso::metrics_snapshot());
  if (passes.empty()) return;

  std::vector<double> open_s, total_s, read_s;
  std::uint64_t buffer_peak = 0;
  for (const Pass& p : passes) {
    open_s.push_back(p.open_s);
    total_s.push_back(p.total_s);
    read_s.push_back(p.total_s - p.open_s);
    buffer_peak = std::max(buffer_peak, p.buffer_peak_bytes);
  }
  const double size = static_cast<double>(in.plain.size());
  r.e2e("setup_s", median(open_s), "s", "open(), n=" + std::to_string(open_s.size()));
  add_throughput_metric(size, total_s, r);
  add_latency_metrics(total_s, r);
  r.e2e("comp_ratio", static_cast<double>(std::filesystem::file_size(path)) / size,
        "ratio");

  const Window w{delta, wall, static_cast<double>(passes.size()),
                 size * static_cast<double>(passes.size()), passes.front().mean_block_bytes,
                 cfg.threads};
  add_layer_metrics(w, r);
  if (gzip) {
    r.layer("ingest.build_s", median(open_s), "s");
    r.layer("ingest.read_s", median(read_s), "s");
  }
  r.layer("util.buffer_peak_MB", static_cast<double>(buffer_peak) / kMB, "MB");
}

}  // namespace gomp_bench
