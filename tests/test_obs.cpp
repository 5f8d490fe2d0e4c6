// Tests for the observability plane: histogram bucket boundaries,
// concurrent updates (N-thread updates must snapshot identically to the
// same work done serially), short-lived threads leaving no heap behind,
// the enabled flag, trace JSON round-trip
// through a minimal in-test JSON parser, and the reconciliation gate —
// a traced DecodeSession sweep must emit exactly one entropy_decode and
// one resolve span per block the session reports decoded. The
// concurrent-readers test is the TSan target for the lock-free
// stats()/metrics hot paths.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/gompresso.hpp"
#include "datagen/datasets.hpp"

namespace gompresso {
namespace {

// ------------------------------------------------------------------ JSON
// Minimal recursive-descent JSON parser, just enough to round-trip the
// tracer's chrome_json() and the snapshot's to_json() output. Numbers
// are parsed as doubles (trace timestamps are µs doubles anyway).

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    const auto it = object.find(key);
    if (it == object.end()) throw std::runtime_error("json: missing key " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return object.count(key) != 0; }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    const JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("json: trailing data");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) throw std::runtime_error("json: unexpected end");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) throw std::runtime_error(std::string("json: expected ") + c);
    ++pos_;
  }
  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  JsonValue value() {
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null();
    return number();
  }
  JsonValue object() {
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    expect('{');
    if (consume('}')) return v;
    do {
      JsonValue key = string();
      expect(':');
      v.object.emplace(std::move(key.str), value());
    } while (consume(','));
    expect('}');
    return v;
  }
  JsonValue array() {
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    expect('[');
    if (consume(']')) return v;
    do {
      v.array.push_back(value());
    } while (consume(','));
    expect(']');
    return v;
  }
  JsonValue string() {
    JsonValue v;
    v.type = JsonValue::Type::kString;
    expect('"');
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) throw std::runtime_error("json: bad escape");
        c = text_[pos_++];
        if (c == 'n') c = '\n';
        if (c == 't') c = '\t';
      }
      v.str.push_back(c);
    }
    expect('"');
    return v;
  }
  JsonValue boolean() {
    JsonValue v;
    v.type = JsonValue::Type::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
    } else {
      throw std::runtime_error("json: bad literal");
    }
    return v;
  }
  JsonValue null() {
    if (text_.compare(pos_, 4, "null") != 0)
      throw std::runtime_error("json: bad literal");
    pos_ += 4;
    return {};
  }
  JsonValue number() {
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    std::size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[end])) ||
            text_[end] == '-' || text_[end] == '+' || text_[end] == '.' ||
            text_[end] == 'e' || text_[end] == 'E'))
      ++end;
    v.number = std::stod(std::string(text_.substr(pos_, end - pos_)));
    pos_ = end;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// ------------------------------------------------------- bucket geometry

TEST(Histogram, BucketBoundaries) {
  using obs::histogram_bucket;
  using obs::histogram_bucket_lower;
  using obs::histogram_bucket_upper;
  using obs::kHistogramBuckets;

  EXPECT_EQ(histogram_bucket(0), 0u);
  EXPECT_EQ(histogram_bucket(1), 1u);
  EXPECT_EQ(histogram_bucket(2), 2u);
  EXPECT_EQ(histogram_bucket(3), 2u);
  EXPECT_EQ(histogram_bucket(4), 3u);
  // Every power of two opens a new bucket; the value just below it
  // still belongs to the previous one.
  for (unsigned i = 1; i < 30; ++i) {
    const std::uint64_t p = std::uint64_t{1} << i;
    EXPECT_EQ(histogram_bucket(p), i + 1);
    EXPECT_EQ(histogram_bucket(p - 1), i);
    EXPECT_EQ(histogram_bucket_lower(i + 1), p);
    EXPECT_EQ(histogram_bucket_upper(i), p - 1);
  }
  // Everything at or beyond 2^(kBuckets-2) lands in the overflow tail.
  const std::uint64_t tail = std::uint64_t{1} << (kHistogramBuckets - 2);
  EXPECT_EQ(histogram_bucket(tail), kHistogramBuckets - 1);
  EXPECT_EQ(histogram_bucket(~std::uint64_t{0}), kHistogramBuckets - 1);
  // lower(i) maps back into bucket i for every bucket.
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    EXPECT_EQ(histogram_bucket(histogram_bucket_lower(i)), i);
  }
}

TEST(Histogram, RecordedValuesLandInTheirBuckets) {
  obs::Registry reg;
  const obs::Histogram h = reg.histogram("t.hist", "us");
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(1024);
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::MetricValue* m = snap.find("t.hist");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(m->hist.buckets[0], 1u);  // {0}
  EXPECT_EQ(m->hist.buckets[1], 1u);  // {1}
  EXPECT_EQ(m->hist.buckets[2], 2u);  // {2,3}
  EXPECT_EQ(m->hist.buckets[11], 1u);  // [1024, 2048)
  EXPECT_EQ(m->hist.count(), 5u);
  EXPECT_EQ(m->hist.sum, 0u + 1 + 2 + 3 + 1024);
  EXPECT_DOUBLE_EQ(m->hist.mean(), 1030.0 / 5.0);
}

TEST(Histogram, PercentileReportsBucketCeilings) {
  obs::HistogramData d;
  for (int i = 0; i < 99; ++i) ++d.buckets[obs::histogram_bucket(100)];
  ++d.buckets[obs::histogram_bucket(100000)];
  // p50 of 99x ~100 + 1x ~100000 is the ceiling of 100's bucket.
  EXPECT_EQ(d.percentile(50), obs::histogram_bucket_upper(obs::histogram_bucket(100)));
  EXPECT_EQ(d.percentile(100),
            obs::histogram_bucket_upper(obs::histogram_bucket(100000)));
  obs::HistogramData empty;
  EXPECT_EQ(empty.percentile(99), 0u);
}

// ------------------------------------------------- concurrent updates

TEST(Registry, ShardMergeMatchesSerialTotals) {
  // The same logical workload — 4 workers x 10k counter bumps and
  // histogram samples — must snapshot identically whether it ran on one
  // thread or was partitioned across four (no lost relaxed updates).
  constexpr int kWorkers = 4;
  constexpr int kPerWorker = 10000;

  const auto run = [&](obs::Registry& reg, int threads) {
    const obs::Counter c = reg.counter("t.count");
    const obs::Histogram h = reg.histogram("t.lat", "us");
    const auto work = [&](int worker) {
      for (int i = 0; i < kPerWorker; ++i) {
        c.add(1);
        h.record(static_cast<std::uint64_t>(worker * kPerWorker + i) % 4096);
      }
    };
    if (threads == 1) {
      for (int w = 0; w < kWorkers; ++w) work(w);
    } else {
      std::vector<std::thread> pool;
      for (int w = 0; w < kWorkers; ++w) pool.emplace_back(work, w);
      for (auto& t : pool) t.join();
    }
  };

  obs::Registry serial, sharded;
  run(serial, 1);
  run(sharded, kWorkers);
  const obs::MetricsSnapshot a = serial.snapshot();
  const obs::MetricsSnapshot b = sharded.snapshot();
  EXPECT_EQ(a.counter("t.count"), static_cast<std::uint64_t>(kWorkers) * kPerWorker);
  EXPECT_EQ(a.counter("t.count"), b.counter("t.count"));
  const obs::MetricValue* ha = a.find("t.lat");
  const obs::MetricValue* hb = b.find("t.lat");
  ASSERT_NE(ha, nullptr);
  ASSERT_NE(hb, nullptr);
  EXPECT_EQ(ha->hist.sum, hb->hist.sum);
  EXPECT_EQ(ha->hist.count(), hb->hist.count());
  EXPECT_EQ(ha->hist.buckets, hb->hist.buckets);
}

TEST(Registry, ShortLivedThreadsLeaveNoHeapBehind) {
  // Pool threads come and go with every session, so recording a metric
  // on a fresh thread must not allocate anything that outlives it.
  // Threads run one at a time: the bound is per thread, not per burst.
  constexpr int kThreads = 32;
  obs::Registry reg;
  const obs::Counter c = reg.counter("t.threads");
  const obs::Histogram h = reg.histogram("t.thread_lat", "us");
  const std::size_t heap_before = mallinfo2().uordblks;
  for (int i = 0; i < kThreads; ++i) {
    std::thread([&] {
      c.add(1);
      h.record(100);
    }).join();
  }
  const std::size_t heap_after = mallinfo2().uordblks;

  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("t.threads"), static_cast<std::uint64_t>(kThreads));
  const obs::MetricValue* lat = snap.find("t.thread_lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->hist.count(), static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(lat->hist.sum, 100u * kThreads);
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  // Sanitizer runtimes replace malloc, so glibc's counters see nothing.
  EXPECT_LT(heap_after - std::min(heap_after, heap_before), 32u * 1024u)
      << "heap in use grew from " << heap_before << " to " << heap_after;
#else
  (void)heap_before;
  (void)heap_after;
#endif
}

TEST(Registry, DisabledRegistryCountsNothing) {
  obs::Registry reg;
  const obs::Counter c = reg.counter("t.count");
  const obs::Gauge g = reg.gauge("t.gauge");
  const obs::Histogram h = reg.histogram("t.hist");
  reg.set_enabled(false);
  c.add(7);
  g.add(3);
  h.record(100);
  EXPECT_EQ(reg.snapshot().counter("t.count"), 0u);
  EXPECT_EQ(reg.snapshot().find("t.gauge")->gauge, 0);
  EXPECT_EQ(reg.snapshot().find("t.hist")->hist.count(), 0u);
  reg.set_enabled(true);
  c.add(7);
  EXPECT_EQ(reg.snapshot().counter("t.count"), 7u);
}

TEST(Registry, RegistrationIsIdempotentAndKindChecked) {
  obs::Registry reg;
  const obs::Counter a = reg.counter("t.same");
  const obs::Counter b = reg.counter("t.same");
  a.add(1);
  b.add(2);
  EXPECT_EQ(reg.snapshot().counter("t.same"), 3u);
  EXPECT_THROW(reg.histogram("t.same"), Error);
  EXPECT_THROW(reg.gauge("t.same"), Error);
}

TEST(Registry, GaugeTracksUpAndDown) {
  obs::Registry reg;
  const obs::Gauge g = reg.gauge("t.depth");
  g.add(5);
  g.add(-2);
  EXPECT_EQ(reg.snapshot().find("t.depth")->gauge, 3);
  g.set(42);
  EXPECT_EQ(reg.snapshot().find("t.depth")->gauge, 42);
}

TEST(Registry, SnapshotToJsonParses) {
  obs::Registry reg;
  reg.counter("t.count", "blocks").add(9);
  reg.gauge("t.depth").set(-4);
  reg.histogram("t.lat", "us").record(100);
  const JsonValue root = JsonParser(reg.snapshot().to_json()).parse();
  ASSERT_EQ(root.type, JsonValue::Type::kArray);
  ASSERT_EQ(root.array.size(), 3u);
  for (const JsonValue& m : root.array) {
    EXPECT_TRUE(m.has("name"));
    EXPECT_TRUE(m.has("kind"));
    if (m.at("kind").str == "counter") {
      EXPECT_EQ(m.at("name").str, "t.count");
      EXPECT_EQ(m.at("value").number, 9.0);
      EXPECT_EQ(m.at("unit").str, "blocks");
    } else if (m.at("kind").str == "gauge") {
      EXPECT_EQ(m.at("value").number, -4.0);
    } else {
      EXPECT_EQ(m.at("kind").str, "histogram");
      EXPECT_EQ(m.at("count").number, 1.0);
      EXPECT_EQ(m.at("sum").number, 100.0);
      ASSERT_EQ(m.at("buckets").array.size(), obs::kHistogramBuckets);
    }
  }
}

// ------------------------------------------------------------------ trace

TEST(Trace, ChromeJsonRoundTrips) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.start();
  {
    obs::TraceSpan outer("outer_stage", "test");
    obs::TraceSpan inner("inner_stage", "test");
  }
  std::thread([&] { obs::TraceSpan span("worker_stage", "test"); }).join();
  tracer.stop();

  const std::vector<obs::TraceEvent> events = tracer.collect();
  ASSERT_EQ(events.size(), 3u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].start_ns, events[i].start_ns);  // sorted
  }

  const JsonValue root = JsonParser(tracer.chrome_json()).parse();
  EXPECT_EQ(root.at("displayTimeUnit").str, "ms");
  const JsonValue& list = root.at("traceEvents");
  ASSERT_EQ(list.type, JsonValue::Type::kArray);

  std::size_t spans = 0, metadata = 0;
  std::map<std::string, int> names;
  for (const JsonValue& ev : list.array) {
    const std::string& ph = ev.at("ph").str;
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(ev.at("name").str, "thread_name");
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++spans;
    ++names[ev.at("name").str];
    EXPECT_GE(ev.at("ts").number, 0.0);
    EXPECT_GE(ev.at("dur").number, 0.0);
    EXPECT_EQ(ev.at("pid").number, 1.0);
    EXPECT_TRUE(ev.has("tid"));
    EXPECT_EQ(ev.at("cat").str, "test");
  }
  EXPECT_EQ(spans, events.size());
  EXPECT_GE(metadata, 2u);  // main thread + the worker thread
  EXPECT_EQ(names["outer_stage"], 1);
  EXPECT_EQ(names["inner_stage"], 1);
  EXPECT_EQ(names["worker_stage"], 1);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Trace, DisabledTracerRecordsNothing) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.start();
  tracer.stop();
  { obs::TraceSpan span("ghost", "test"); }
  EXPECT_TRUE(tracer.collect().empty());
}

// ------------------------------------------------- pipeline reconciliation

TEST(Trace, SessionSpansReconcileWithBlocksDecoded) {
  // A traced sequential sweep over a multi-block all-coded archive must
  // emit exactly one entropy_decode and one resolve span per block the
  // session says it decoded, and the global decode.blocks counter must
  // advance by the same amount.
  const Bytes input = datagen::wikipedia(300000);  // compressible: all coded
  CompressOptions copt;
  copt.block_size = 32 * 1024;
  const Bytes file = compress(input, copt);

  const obs::MetricsSnapshot before = obs::metrics_snapshot();
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.start();

  std::uint64_t blocks_decoded = 0;
  {
    auto session = gompresso::open(serve::memory_source(file));
    Bytes got(input.size());
    std::size_t off = 0, n = 0;
    Bytes chunk(64 * 1024);
    while ((n = session->read(MutableByteSpan(chunk.data(), chunk.size()))) > 0) {
      std::copy(chunk.begin(), chunk.begin() + static_cast<std::ptrdiff_t>(n),
                got.begin() + static_cast<std::ptrdiff_t>(off));
      off += n;
    }
    EXPECT_EQ(off, input.size());
    EXPECT_EQ(got, input);
    const serve::SessionStats st = session->stats();
    blocks_decoded = st.blocks_decoded;
    EXPECT_EQ(st.decode_failures, 0u);
  }  // session dtor joins in-flight prefetch before we stop the tracer

  tracer.stop();
  const obs::MetricsSnapshot after = obs::metrics_snapshot();

  EXPECT_GT(blocks_decoded, 4u);  // genuinely multi-block
  std::uint64_t entropy_spans = 0, resolve_spans = 0, serve_spans = 0;
  for (const obs::TraceEvent& ev : tracer.collect()) {
    const std::string_view name(ev.name);
    if (name == "entropy_decode") ++entropy_spans;
    if (name == "resolve") ++resolve_spans;
    if (name == "serve_read") ++serve_spans;
  }
  EXPECT_EQ(entropy_spans, blocks_decoded);
  EXPECT_EQ(resolve_spans, blocks_decoded);
  EXPECT_GE(serve_spans, 1u);
  EXPECT_EQ(tracer.dropped(), 0u);

  EXPECT_EQ(after.counter("decode.blocks") - before.counter("decode.blocks"),
            blocks_decoded);
  // All-coded archive: the stored-block path must not have fired.
  EXPECT_EQ(after.counter("decode.stored_blocks"),
            before.counter("decode.stored_blocks"));
  EXPECT_EQ(after.counter("serve.blocks_decoded") -
                before.counter("serve.blocks_decoded"),
            blocks_decoded);
}

TEST(Metrics, GlobalSnapshotTracksDecodeWork) {
  const Bytes input = datagen::wikipedia(100000);
  const Bytes file = compress(input, {});
  const std::uint64_t before = obs::metrics_snapshot().counter("decode.bytes");
  const DecompressResult result = decompress(file, {});
  EXPECT_EQ(result.data, input);
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  EXPECT_EQ(snap.counter("decode.bytes") - before, input.size());
  const obs::MetricValue* lat = snap.find("decode.entropy_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_GT(lat->hist.count(), 0u);
}

// --------------------------------------------------------- TSan coverage

TEST(Stats, ConcurrentReadersSeeMonotonicCounters) {
  // The lock-free stats() snapshot racing demand decodes, prefetch, and
  // cache hits: every reader must observe monotonically non-decreasing
  // counters and no torn values (TSan asserts the absence of data races
  // on the underlying atomics).
  const Bytes input = datagen::wikipedia(200000);
  CompressOptions copt;
  copt.block_size = 16 * 1024;
  const Bytes file = compress(input, copt);
  auto session = gompresso::open(serve::memory_source(file));

  std::atomic<bool> done{false};
  std::thread poller([&] {
    serve::SessionStats last;
    while (!done.load(std::memory_order_relaxed)) {
      const serve::SessionStats st = session->stats();
      EXPECT_GE(st.blocks_decoded, last.blocks_decoded);
      EXPECT_GE(st.bytes_delivered, last.bytes_delivered);
      EXPECT_GE(st.cache_hits, last.cache_hits);
      EXPECT_GE(st.demand_decodes, last.demand_decodes);
      last = st;
    }
  });
  std::thread snapshotter([&] {
    while (!done.load(std::memory_order_relaxed)) {
      (void)obs::metrics_snapshot();  // races worker-side counter adds
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Bytes buf(4096);
      for (int i = 0; i < 200; ++i) {
        const std::size_t off = static_cast<std::size_t>((r * 131 + i * 977) * 97) %
                                input.size();
        const std::size_t n =
            session->read_at(off, MutableByteSpan(buf.data(), buf.size()));
        const std::size_t want = std::min<std::size_t>(buf.size(), input.size() - off);
        EXPECT_EQ(n, want);
      }
    });
  }
  for (auto& t : readers) t.join();
  done.store(true, std::memory_order_relaxed);
  poller.join();
  snapshotter.join();

  const serve::SessionStats st = session->stats();
  EXPECT_GT(st.blocks_decoded, 0u);
  EXPECT_GT(st.bytes_delivered, 0u);
}

}  // namespace
}  // namespace gompresso
