// Shared helpers for the figure-reproduction benchmark binaries.
//
// Every bench prints two kinds of numbers:
//   measured — wall-clock on this machine (1-vCPU container; the warp
//              engine is simulated, so absolute values are CPU-scale),
//   modeled  — the calibrated device models (K40 cost model, PCIe,
//              24-thread CPU scaling) that place the same counted work on
//              the paper's hardware. EXPERIMENTS.md records both next to
//              the paper's reported values.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "baselines/block_parallel.hpp"
#include "core/gompresso.hpp"
#include "sim/decompress.hpp"
#include "sim/energy_model.hpp"
#include "sim/gpu_cost_model.hpp"
#include "util/stopwatch.hpp"

// Provenance stamps for BENCH_*.json, injected by CMake so ratchet
// diffs and uploaded artifacts are attributable to a commit and build.
#ifndef GOMPRESSO_GIT_SHA
#define GOMPRESSO_GIT_SHA "unknown"
#endif
#ifndef GOMPRESSO_BUILD_TYPE
#define GOMPRESSO_BUILD_TYPE "unknown"
#endif

namespace gompresso::bench {

// The figure benches name the paper's strategies unqualified.
using sim::Strategy;
using sim::strategy_name;

/// Default dataset size for the figure benches (scaled from the paper's
/// 1 GB to suit this container; both generators are stationary sources so
/// ratios and round counts are size-stable).
inline constexpr std::size_t kBenchBytes = 12 * 1024 * 1024;

/// Best-of-N wall time of `fn` in seconds (first call warms caches).
inline double time_best_of(int n, const std::function<void()>& fn) {
  double best = 1e100;
  fn();  // warm-up
  for (int i = 0; i < n; ++i) {
    Stopwatch t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

/// One decompression measurement: measured seconds + the work profile the
/// device model consumes.
struct DecompressMeasurement {
  double seconds = 0;
  sim::SimResult result;
  sim::RunProfile profile;
};

/// Times warp-simulator decompression of `file` (whose plaintext is
/// `input_size` bytes) with the given strategy and fills the device-model
/// profile from the simulator's execution counts.
inline DecompressMeasurement measure_decompress(ByteSpan file, std::size_t input_size,
                                                Codec codec, sim::Strategy strategy,
                                                int repeats = 2) {
  DecompressMeasurement m;
  m.seconds = time_best_of(repeats, [&] { m.result = sim::decompress(file, strategy); });
  check(m.result.data.size() == input_size, "bench: size mismatch");

  m.profile.uncompressed_bytes = input_size;
  m.profile.compressed_bytes = file.size();
  m.profile.codec = codec;
  m.profile.strategy = strategy;
  m.profile.avg_rounds_per_group =
      strategy == Strategy::kMultiPass
          ? static_cast<double>(m.result.multipass.passes)
          : m.result.metrics.avg_rounds_per_group();
  m.profile.spilled_refs = m.result.multipass.spilled_refs;
  m.profile.spilled_bytes = m.result.multipass.spilled_bytes;
  return m;
}

/// Block-parallel decode speed of a baseline codec's compress_parallel()
/// `file` at `threads` (0 = the shared default pool, 1 = the calling
/// thread alone), best of 2, with a byte-exact round-trip check.
inline double baseline_decode_gb_per_s(const baselines::Codec& codec, ByteSpan file,
                                       const Bytes& input, std::size_t threads) {
  Bytes out;
  const double seconds = time_best_of(
      2, [&] { out = baselines::decompress_parallel(codec, file, threads, false); });
  check(out == input, "bench: baseline round trip failed");
  return gb_per_sec(input.size(), seconds);
}

inline void print_header(const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("==============================================================\n");
}

/// Median-of-N wall time of `fn` in seconds (first call warms caches).
/// The benchmark trajectory files record medians rather than best-of so a
/// single lucky run can't mask a regression.
inline double time_median_of(int n, const std::function<void()>& fn) {
  fn();  // warm-up
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Stopwatch t;
    fn();
    samples.push_back(t.seconds());
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

/// Machine-readable benchmark report (BENCH_*.json). Every benchmark that
/// wants a trajectory across PRs appends entries and writes one file; CI
/// smoke-runs the emitters so the format can't rot.
class JsonReport {
 public:
  struct Entry {
    std::string name;
    double seconds;
    std::uint64_t bytes;
  };
  struct Gate {
    std::string name;
    double value;
    double threshold;
    const char* status;  // "passed", "failed" or "skipped"
  };

  explicit JsonReport(std::string bench, std::string dataset, int reps)
      : bench_(std::move(bench)), dataset_(std::move(dataset)), reps_(reps) {}

  /// Records one measurement: `bytes` of payload processed in
  /// `seconds_median` (median-of-reps) wall seconds.
  void add(const std::string& name, double seconds_median, std::uint64_t bytes) {
    entries_.push_back({name, seconds_median, bytes});
  }

  /// Records a `value >= threshold` acceptance gate. An unarmed gate
  /// (its precondition, such as a core count, does not hold here) is
  /// recorded as skipped and never fails.
  void add_gate(const std::string& name, double value, double threshold,
                bool armed = true) {
    const char* status =
        !armed ? "skipped" : value >= threshold ? "passed" : "failed";
    gates_.push_back({name, value, threshold, status});
  }

  /// Throws gompresso::Error naming the first failed gate. Call after
  /// write(), so the JSON records every gate even when one fails.
  void check_gates() const {
    for (const Gate& g : gates_) {
      char msg[256];
      std::snprintf(msg, sizeof msg, "bench: gate '%s' failed: %.3fx < %.3fx",
                    g.name.c_str(), g.value, g.threshold);
      check(std::strcmp(g.status, "failed") != 0, msg);
    }
  }

  double mb_per_s(const Entry& e) const {
    return e.seconds > 0 ? static_cast<double>(e.bytes) / 1e6 / e.seconds : 0.0;
  }

  /// Writes the report; returns false (and warns) if the file can't be
  /// opened. Keys are stable: downstream tooling diffs them across PRs.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"dataset\": \"%s\",\n",
                 escaped(bench_).c_str(), escaped(dataset_).c_str());
    std::fprintf(f,
                 "  \"schema_version\": 2,\n  \"git_sha\": \"%s\",\n"
                 "  \"build_type\": \"%s\",\n  \"threads\": %u,\n",
                 escaped(GOMPRESSO_GIT_SHA).c_str(),
                 escaped(GOMPRESSO_BUILD_TYPE).c_str(),
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"timing\": \"median_of_%d\",\n  \"entries\": [\n", reps_);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"seconds_median\": %.6f, "
                   "\"bytes\": %llu, \"mb_per_s\": %.2f}%s\n",
                   escaped(e.name).c_str(), e.seconds,
                   static_cast<unsigned long long>(e.bytes), mb_per_s(e),
                   i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "  ]");
    if (!gates_.empty()) {
      std::fprintf(f, ",\n  \"gates\": [\n");
      for (std::size_t i = 0; i < gates_.size(); ++i) {
        const Gate& g = gates_[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"value\": %.4f, "
                     "\"threshold\": %.4f, \"status\": \"%s\"}%s\n",
                     escaped(g.name).c_str(), g.value, g.threshold, g.status,
                     i + 1 < gates_.size() ? "," : "");
      }
      std::fprintf(f, "  ]");
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu entries)\n", path.c_str(), entries_.size());
    return true;
  }

 private:
  static std::string escaped(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string bench_;
  std::string dataset_;
  int reps_;
  std::vector<Entry> entries_;
  std::vector<Gate> gates_;
};

/// argv shim for google-benchmark binaries (bench_micro): injects
/// `--benchmark_out=<default_out> --benchmark_out_format=json` unless the
/// caller passed its own --benchmark_out, so the micro benches emit a
/// BENCH_*.json trajectory file alongside the JsonReport-based benches.
struct GBenchArgs {
  std::vector<std::string> storage;
  std::vector<char*> argv;
  int argc = 0;

  GBenchArgs(int argc_in, char** argv_in, const char* default_out) {
    bool has_out = false;
    for (int i = 0; i < argc_in; ++i) {
      storage.emplace_back(argv_in[i]);
      if (storage.back().rfind("--benchmark_out=", 0) == 0) has_out = true;
    }
    if (!has_out) {
      storage.push_back(std::string("--benchmark_out=") + default_out);
      storage.push_back("--benchmark_out_format=json");
    }
    for (auto& s : storage) argv.push_back(s.data());
    argv.push_back(nullptr);
    argc = static_cast<int>(storage.size());
  }
};

}  // namespace gompresso::bench
