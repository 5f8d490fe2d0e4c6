// Per-layer accounting: registry deltas, latency summaries, the shared
// read-and-compare loop, and the tracer window.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "e2e.hpp"

namespace gomp_bench {

using gompresso::obs::HistogramData;
using gompresso::obs::MetricKind;
using gompresso::obs::MetricValue;

void RegistryDelta::note_absent(std::string_view name) const {
  if (std::find(absent_.begin(), absent_.end(), name) == absent_.end())
    absent_.emplace_back(name);
}

// A metric that registered during the window counts from zero.
Opt RegistryDelta::count(std::string_view name) const {
  const MetricValue* a = before_.find(name);
  const MetricValue* b = after_.find(name);
  if (b == nullptr || b->kind != MetricKind::kCounter) {
    note_absent(name);
    return std::nullopt;
  }
  return static_cast<double>(b->value - (a != nullptr ? a->value : 0));
}

std::optional<HistogramData> RegistryDelta::hist(std::string_view name) const {
  const MetricValue* a = before_.find(name);
  const MetricValue* b = after_.find(name);
  if (b == nullptr || b->kind != MetricKind::kHistogram) {
    note_absent(name);
    return std::nullopt;
  }
  HistogramData d = b->hist;
  if (a != nullptr) {
    for (std::size_t i = 0; i < d.buckets.size(); ++i) d.buckets[i] -= a->hist.buckets[i];
    d.sum -= a->hist.sum;
  }
  return d;
}

Opt RegistryDelta::sum_s(std::string_view name) const {
  const auto h = hist(name);
  if (!h) return std::nullopt;
  return static_cast<double>(h->sum) / 1e6;
}

Opt RegistryDelta::pct_ms(std::string_view name, double p) const {
  const auto h = hist(name);
  if (!h || h->count() == 0) return std::nullopt;
  return static_cast<double>(h->percentile(p)) / 1e3;
}

void add_layer_metrics(const Window& w, Report& r) {
  const RegistryDelta& d = w.delta;
  const double capacity_s = w.wall_s * static_cast<double>(w.threads);

  // core: native block decode, split into its two stages.
  const Opt entropy = d.sum_s("decode.entropy_us");
  const Opt resolve = d.sum_s("decode.resolve_us");
  const Opt decoded_mb = mul(d.count("decode.bytes"), 1 / kMB);
  r.layer("core.entropy_busy_s", div(entropy, w.ops), "s/op");
  r.layer("core.resolve_busy_s", div(resolve, w.ops), "s/op");
  r.layer("core.entropy_MBps", div(decoded_mb, entropy), "MB/s");
  r.layer("core.resolve_MBps", div(decoded_mb, resolve), "MB/s");
  r.layer("core.busy_frac", div(add(entropy, resolve), capacity_s), "ratio");
  r.layer("core.decode_blocks", div(d.count("decode.blocks"), w.ops), "blocks/op");

  // serve: the session's cache and prefetch policy.
  // A block lookup is a cache hit (ready at first look) or a decode
  // wait (the reader blocked on an in-flight decode).
  const Opt reads = d.count("serve.reads");
  const Opt blocks = d.count("serve.blocks_decoded");
  const Opt hits = d.count("serve.cache_hits");
  const Opt waits = d.count("serve.decode_waits");
  r.layer("serve.cache_hit_ratio", div(hits, add(hits, waits)), "ratio");
  r.layer("serve.decode_amplification",
          div(mul(blocks, w.mean_block_bytes), w.bytes_served), "ratio");
  r.layer("serve.prefetch_per_request", div(d.count("serve.prefetch_decodes"), reads),
          "blocks/read");
  r.layer("serve.demand_per_request", div(d.count("serve.demand_decodes"), reads),
          "blocks/read");
  r.layer("serve.decode_waits", div(waits, reads), "waits/read");
  r.layer("serve.read_wait_s", div(d.sum_s("serve.read_latency_us"), w.ops), "s/op");
  r.layer("serve.read_p99_ms", d.pct_ms("serve.read_latency_us", 99), "ms");

  // ingest: gzip index build (speculative boundary finding).
  const Opt builds = d.count("ingest.index_builds");
  const Opt chunks = d.count("ingest.chunks_indexed");
  const Opt fallbacks = d.count("ingest.chunk_fallbacks");
  const Opt indexed = d.count("ingest.bytes_indexed");
  r.layer("ingest.chunks", div(chunks, builds), "chunks/build");
  r.layer("ingest.chunk_fallbacks", div(fallbacks, builds), "chunks/build");
  const Opt miss = div(fallbacks, chunks);
  r.layer("ingest.speculation_hit_ratio", miss ? Opt(1 - *miss) : std::nullopt, "ratio");
  r.layer("ingest.candidates_per_chunk",
          div(d.count("ingest.boundary_candidates"), chunks), "candidates/chunk");
  r.layer("ingest.boundary_bits_scanned",
          div(d.count("ingest.boundary_bits_scanned"), builds), "bits/build");
  r.layer("ingest.decode_amplification",
          builds && *builds > 0
              ? div(add(indexed, mul(blocks, w.mean_block_bytes)), w.bytes_served)
              : std::nullopt,
          "ratio");

  // net: the daemon's queue and request latency.
  r.layer("net.queue_wait_p50_ms", d.pct_ms("net.queue_wait_us", 50), "ms");
  r.layer("net.queue_wait_p99_ms", d.pct_ms("net.queue_wait_us", 99), "ms");
  r.layer("net.request_p50_ms", d.pct_ms("net.request_us", 50), "ms");
  r.layer("net.request_p99_ms", d.pct_ms("net.request_us", 99), "ms");

  // lz77 + core emit: the write path.
  const Opt parse = d.sum_s("compress.parse_us");
  const Opt emit = d.sum_s("compress.emit_us");
  const Opt compressed_mb = mul(d.count("compress.bytes"), 1 / kMB);
  r.layer("lz77.parse_busy_s", div(parse, w.ops), "s/op");
  r.layer("core.emit_busy_s", div(emit, w.ops), "s/op");
  r.layer("lz77.parse_MBps", div(compressed_mb, parse), "MB/s");
  r.layer("core.emit_MBps", div(compressed_mb, emit), "MB/s");
  r.layer("core.compress_busy_frac", div(add(parse, emit), capacity_s), "ratio");

  // util: the shared thread pool.
  r.layer("util.pool_tasks",
          div(add(d.count("pool.tasks_submitted"), d.count("pool.jobs_dispatched")), w.ops),
          "tasks/op");

  // Metrics register on first use, so a name is absent either because
  // its layer never ran in this process or because it was renamed.
  if (!d.absent().empty()) {
    std::string names;
    for (const std::string& n : d.absent()) names += (names.empty() ? "" : " ") + n;
    r.notes.push_back("absent from the registry: " + names);
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

void add_throughput_metric(double bytes, const std::vector<double>& op_s, Report& r) {
  std::vector<double> rates;
  for (double s : op_s) rates.push_back(bytes / kMB / s);
  char note[96];
  std::snprintf(note, sizeof note, "n=%zu q1=%.1f q3=%.1f", rates.size(),
                percentile(rates, 25), percentile(rates, 75));
  r.e2e("throughput_MBps", bytes / kMB / median(op_s), "MB/s", note);
}

void add_latency_metrics(const std::vector<double>& latency_s, Report& r) {
  const std::string n = "n=" + std::to_string(latency_s.size());
  r.e2e("latency_p50_ms", median(latency_s) * 1e3, "ms", n);
  r.e2e("latency_p90_ms", percentile(latency_s, 90) * 1e3, "ms", n);
  r.layer("client.latency_p99_ms", percentile(latency_s, 99) * 1e3, "ms");
}

double mean_block_bytes(const gompresso::serve::DecodeSession& s) {
  return s.num_blocks() == 0 ? 0
                             : static_cast<double>(s.size()) /
                                   static_cast<double>(s.num_blocks());
}

bool read_and_compare(gompresso::serve::DecodeSession& session, const Bytes& plain,
                      Report& r) {
  if (session.size() != plain.size()) {
    r.mismatch("session size " + std::to_string(session.size()) + " != " +
               std::to_string(plain.size()));
    return false;
  }
  Bytes buf(1u << 20);
  std::uint64_t off = 0;
  while (true) {
    std::size_t n = 0;
    {
      gompresso::obs::TraceSpan span("read", "bench");
      n = session.read(gompresso::MutableByteSpan(buf.data(), buf.size()));
    }
    if (n == 0) break;
    if (off + n > plain.size() || std::memcmp(buf.data(), plain.data() + off, n) != 0) {
      r.mismatch("scan bytes differ near offset " + std::to_string(off));
      return false;
    }
    off += n;
  }
  if (off != plain.size()) {
    r.mismatch("scan ended at " + std::to_string(off) + " of " +
               std::to_string(plain.size()));
    return false;
  }
  return true;
}

TraceWindow::TraceWindow(const Config& cfg) : active_(cfg.trace), limit_s_(cfg.trace_window) {
  if (!active_) return;
  gompresso::obs::Tracer::instance().start();
  start_ = Clock::now();
}

void TraceWindow::stop_if_due() {
  if (active_ && seconds_between(start_, Clock::now()) >= limit_s_) stop();
}

double TraceWindow::stop() {
  if (active_) {
    gompresso::obs::Tracer::instance().stop();
    traced_s_ = seconds_between(start_, Clock::now());
    active_ = false;
  }
  return traced_s_;
}

}  // namespace gomp_bench
