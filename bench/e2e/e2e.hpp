// gomp_bench: the end-to-end benchmark binary (one workload per process).
//
// Shared pieces of the four workloads: the run configuration, the
// generated inputs, the metric report, and registry deltas. The bench
// calls only the library's stable front doors (open/open_backend,
// DecodeSession, compress/compress_file/decompress, net::Server and
// net::HttpClient, crc32, obs), so refactors inside src/ do not need to
// edit it. README.md in this directory is the metric catalog.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/gompresso.hpp"

namespace gomp_bench {

using gompresso::Bytes;
using Clock = std::chrono::steady_clock;
using Opt = std::optional<double>;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline constexpr double kMB = 1e6;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;         // measured window
  double warmup = 2;           // unrecorded warm-up: min(2 s, seconds / 5)
  std::size_t threads = 4;     // T: decode/compress threads, client connections
  std::size_t size = 64u << 20;
  bool trace = false;          // tracer on, replays, per-layer focus
  double trace_window = 3;     // seconds of the window the tracer records
  std::string workdir;         // generated inputs and outputs
  std::string trace_file;      // Chrome trace path (trace runs)
};

/// Generated inputs. The plaintext stays in memory as the reference
/// every delivered byte is compared against; the files live in workdir.
struct Inputs {
  Bytes plain;
  std::string plain_path;  // plaintext on disk (compress_write, gzip)
  std::string gmpz_path;   // compress() with default options
  std::string gz_path;     // system `gzip -6 -n`
};

/// One reported number. An empty value means the layer did no work in
/// this workload, or a registry name it derives from is absent.
struct Metric {
  std::string name;
  Opt value;
  std::string unit;
  std::string note;
};

struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  bool valid = true;  // false when the load generator itself fell behind
  double traced_s = 0;  // wall seconds the tracer recorded
  std::vector<std::string> notes;

  void e2e(std::string name, double value, std::string unit,
           std::string note = "") {
    end_to_end.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  void layer(std::string name, Opt value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit), ""});
  }
  void mismatch(const std::string& what) {
    if (correct) notes.push_back("MISMATCH: " + what);
    correct = false;
  }
};

/// Counter and histogram differences between two snapshots of the obs
/// registry. A name missing from the registry yields an empty value and
/// is listed in absent(), never an error: renames inside src/ must not
/// break the benchmark.
class RegistryDelta {
 public:
  RegistryDelta(gompresso::obs::MetricsSnapshot before,
                gompresso::obs::MetricsSnapshot after)
      : before_(std::move(before)), after_(std::move(after)) {}

  Opt count(std::string_view name) const;
  /// Sum of a µs histogram's samples, in seconds.
  Opt sum_s(std::string_view name) const;
  /// Percentile of a µs histogram (log2-bucket ceiling), in ms; empty
  /// when the histogram took no samples.
  Opt pct_ms(std::string_view name, double p) const;

  const std::vector<std::string>& absent() const { return absent_; }

 private:
  std::optional<gompresso::obs::HistogramData> hist(std::string_view name) const;
  void note_absent(std::string_view name) const;

  gompresso::obs::MetricsSnapshot before_, after_;
  mutable std::vector<std::string> absent_;
};

// Arithmetic on possibly-absent values: empty in, or a zero divisor,
// gives empty out.
inline Opt div(Opt a, Opt b) {
  if (!a || !b || *b == 0) return std::nullopt;
  return *a / *b;
}
inline Opt add(Opt a, Opt b) {
  if (!a || !b) return std::nullopt;
  return *a + *b;
}
inline Opt mul(Opt a, double k) { return a ? Opt(*a * k) : std::nullopt; }

/// One measured window, as the per-layer accounting needs it.
struct Window {
  const RegistryDelta& delta;
  double wall_s = 0;            // window wall time
  double ops = 0;               // workload operations in the window
  double bytes_served = 0;      // uncompressed bytes handed to the client
  double mean_block_bytes = 0;  // archive bytes / session blocks
  std::size_t threads = 1;
};

/// Per-layer metrics derived from registry deltas (every layer, every
/// workload; a layer a workload never touches reports no work).
void add_layer_metrics(const Window& w, Report& r);

void write_file(const std::string& path, gompresso::ByteSpan data);
Bytes read_file(const std::string& path);

double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p);

/// throughput_MBps: `bytes` over the median operation time, annotated
/// with the operation count and the quartiles of the per-op rates.
void add_throughput_metric(double bytes, const std::vector<double>& op_s, Report& r);

/// Latencies of the workload's user operation (a scan pass, a GET, a
/// compress_file call): median and p90 in ms as end-to-end metrics,
/// annotated with the sample count, and p99 per layer. The end-to-end
/// tail is p90 because p99 on this kind of shared host tracks host
/// stalls of 10-30 ms more than the system (README.md).
void add_latency_metrics(const std::vector<double>& latency_s, Report& r);

/// Mean uncompressed bytes per block of an open session.
double mean_block_bytes(const gompresso::serve::DecodeSession& s);

/// Reads `session` to the end in 1 MiB read() calls, comparing every
/// byte with `plain`. Returns false (after noting the mismatch) on a
/// difference.
bool read_and_compare(gompresso::serve::DecodeSession& session,
                      const Bytes& plain, Report& r);

// The workloads. Each fills end-to-end metrics (except peak_mem_MB,
// which main owns), per-layer metrics, and attempted/failed counts.
void run_scan(const Config& cfg, const Inputs& in, bool gzip, Report& r);
void run_range_serve(const Config& cfg, const Inputs& in, Report& r);
void run_compress_write(const Config& cfg, const Inputs& in, Report& r);

/// Isolated replays through front doors (trace runs): memcpy roofline,
/// crc32, 1-thread batch decompress, gzip index build and chunk decode.
void run_replays(const Config& cfg, const Inputs& in, Report& r);

/// Tracer lifetime for one measured window: starts recording when the
/// run is traced, and stop_if_due() ends it once cfg.trace_window has
/// passed (called only where no span is open on the calling thread).
class TraceWindow {
 public:
  explicit TraceWindow(const Config& cfg);
  void stop_if_due();
  /// Stops recording (idempotent); returns the wall seconds recorded,
  /// 0 when untraced.
  double stop();

 private:
  bool active_ = false;
  double limit_s_ = 0;
  Clock::time_point start_{};
  double traced_s_ = 0;
};

}  // namespace gomp_bench
