#include "obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/trace.hpp"
#include "util/common.hpp"

namespace gompresso::obs {
namespace {

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "counter";
}

}  // namespace

std::uint32_t Registry::register_metric(std::string_view name,
                                        std::string_view unit, MetricKind kind,
                                        std::uint32_t width) {
  util::MutexLock lock(mutex_);
  for (const Descriptor& d : descriptors_) {
    if (d.name == name) {
      check(d.kind == kind, "obs: metric re-registered with different kind");
      return d.slot;
    }
  }
  std::uint32_t slot = 0;
  if (kind == MetricKind::kGauge) {
    check(next_gauge_ < kMaxGauges, "obs: gauge budget exhausted");
    slot = next_gauge_++;
  } else {
    check(next_slot_ + width <= kMaxSlots, "obs: metric slot budget exhausted");
    slot = next_slot_;
    next_slot_ += width;
  }
  descriptors_.push_back(
      Descriptor{std::string(name), std::string(unit), kind, slot});
  return slot;
}

Counter Registry::counter(std::string_view name, std::string_view unit) {
  return Counter(this, register_metric(name, unit, MetricKind::kCounter, 1));
}

Gauge Registry::gauge(std::string_view name, std::string_view unit) {
  return Gauge(this, register_metric(name, unit, MetricKind::kGauge, 0));
}

Histogram Registry::histogram(std::string_view name, std::string_view unit) {
  return Histogram(
      this, register_metric(name, unit, MetricKind::kHistogram,
                            static_cast<std::uint32_t>(kHistogramBuckets) + 1));
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  util::MutexLock lock(mutex_);
  snap.metrics.reserve(descriptors_.size());
  for (const Descriptor& d : descriptors_) {
    MetricValue mv;
    mv.name = d.name;
    mv.unit = d.unit;
    mv.kind = d.kind;
    switch (d.kind) {
      case MetricKind::kCounter:
        mv.value = slots_[d.slot].load(std::memory_order_relaxed);
        break;
      case MetricKind::kGauge:
        mv.gauge = gauges_[d.slot].load(std::memory_order_relaxed);
        break;
      case MetricKind::kHistogram:
        for (std::size_t b = 0; b < kHistogramBuckets; ++b)
          mv.hist.buckets[b] = slots_[d.slot + b].load(std::memory_order_relaxed);
        mv.hist.sum =
            slots_[d.slot + kHistogramBuckets].load(std::memory_order_relaxed);
        break;
    }
    snap.metrics.push_back(std::move(mv));
  }
  return snap;
}

void Registry::reset() {
  for (auto& slot : slots_) slot.store(0, std::memory_order_relaxed);
  for (auto& g : gauges_) g.store(0, std::memory_order_relaxed);
}

std::uint64_t HistogramData::percentile(double p) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  const double target = static_cast<double>(n) * p / 100.0;
  std::uint64_t cumulative = 0;
  std::size_t last = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    if (buckets[i] == 0) continue;
    cumulative += buckets[i];
    last = i;
    if (static_cast<double>(cumulative) >= target)
      return histogram_bucket_upper(i);
  }
  return histogram_bucket_upper(last);
}

const MetricValue* MetricsSnapshot::find(std::string_view name) const {
  for (const MetricValue& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  const MetricValue* m = find(name);
  if (m == nullptr) return 0;
  if (m->kind == MetricKind::kGauge)
    return m->gauge > 0 ? static_cast<std::uint64_t>(m->gauge) : 0;
  return m->value;
}

namespace {

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  out += buf;
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::string out = "[";
  bool first = true;
  for (const MetricValue& m : metrics) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_json_string(out, m.name);
    out += ",\"kind\":\"";
    out += kind_name(m.kind);
    out += "\",\"unit\":";
    append_json_string(out, m.unit);
    switch (m.kind) {
      case MetricKind::kCounter:
        out += ",\"value\":";
        append_u64(out, m.value);
        break;
      case MetricKind::kGauge:
        out += ",\"value\":";
        append_i64(out, m.gauge);
        break;
      case MetricKind::kHistogram: {
        out += ",\"count\":";
        append_u64(out, m.hist.count());
        out += ",\"sum\":";
        append_u64(out, m.hist.sum);
        out += ",\"p50\":";
        append_u64(out, m.hist.percentile(50.0));
        out += ",\"p99\":";
        append_u64(out, m.hist.percentile(99.0));
        out += ",\"buckets\":[";
        for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
          if (b != 0) out += ',';
          append_u64(out, m.hist.buckets[b]);
        }
        out += ']';
        break;
      }
    }
    out += '}';
  }
  out += ']';
  return out;
}

Registry& registry() {
  static Registry instance;
  return instance;
}

MetricsSnapshot metrics_snapshot() { return registry().snapshot(); }

void ensure_initialized() {
  registry();
  Tracer::instance();
}

}  // namespace gompresso::obs
