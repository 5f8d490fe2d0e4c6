// compress_write: the write path. Each operation is one compress_file()
// of the plaintext file with default options and T threads. After the
// window the output is decoded once, untimed, and compared with the
// plaintext; comp_ratio catches a change that trades ratio for speed.
#include <filesystem>

#include "e2e.hpp"

namespace gomp_bench {
namespace {

constexpr int kSetups = 9;
constexpr std::size_t kSetupBytes = 4096;

}  // namespace

void run_compress_write(const Config& cfg, const Inputs& in, Report& r) {
  gompresso::CompressOptions opt;
  opt.num_threads = cfg.threads;
  const double size = static_cast<double>(in.plain.size());
  const std::string out_path = cfg.workdir + "/out.gmps";

  // Set-up: compress_file() of a 4 KiB file, the fixed cost of a call
  // (file opens, thread pool, coder tables) before any real block work.
  const std::string small = cfg.workdir + "/setup.txt";
  write_file(small, gompresso::ByteSpan(in.plain.data(),
                                        std::min(kSetupBytes, in.plain.size())));
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    gompresso::compress_file(small, small + ".gmps", opt);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  const auto call = [&] {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t consumed = 0;
    {
      gompresso::obs::TraceSpan span("compress_file", "bench");
      consumed = gompresso::compress_file(in.plain_path, out_path, opt);
    }
    const double s = seconds_between(t0, Clock::now());
    if (consumed != in.plain.size())
      r.mismatch("compress_file consumed " + std::to_string(consumed) + " bytes");
    return s;
  };

  const Clock::time_point warm = Clock::now();
  do {
    call();
  } while (r.correct && seconds_between(warm, Clock::now()) < cfg.warmup);

  std::vector<double> call_s;
  gompresso::obs::MetricsSnapshot before = gompresso::metrics_snapshot();
  TraceWindow tw(cfg);
  const Clock::time_point start = Clock::now();
  while (r.correct) {
    ++r.attempted;
    try {
      call_s.push_back(call());
    } catch (const std::exception& e) {
      ++r.failed;
      r.notes.push_back(std::string("compress_file failed: ") + e.what());
    }
    tw.stop_if_due();
    if (seconds_between(start, Clock::now()) >= cfg.seconds) break;
  }
  const double wall = seconds_between(start, Clock::now());
  r.traced_s = tw.stop();
  const RegistryDelta delta(std::move(before), gompresso::metrics_snapshot());
  if (call_s.empty()) return;

  // Round trip, outside the window.
  gompresso::OpenOptions oopt;
  oopt.session.num_threads = cfg.threads;
  read_and_compare(*gompresso::open(out_path, oopt), in.plain, r);

  r.e2e("setup_s", median(setup_s), "s",
        "compress_file() of 4 KiB, n=" + std::to_string(setup_s.size()));
  add_throughput_metric(size, call_s, r);
  add_latency_metrics(call_s, r);
  r.e2e("comp_ratio", static_cast<double>(std::filesystem::file_size(out_path)) / size,
        "ratio");

  const Window w{delta, wall, static_cast<double>(call_s.size()),
                 size * static_cast<double>(call_s.size()), 0, cfg.threads};
  add_layer_metrics(w, r);
}

}  // namespace gomp_bench
