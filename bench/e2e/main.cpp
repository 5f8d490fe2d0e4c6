// gomp_bench: runs one workload of the end-to-end benchmark in a fresh
// process and writes its metrics as JSON. run.py builds and drives it;
// README.md is the metric catalog.
//
//   gomp_bench --workload W --seed S --seconds N --threads T
//              --workdir DIR --out RUN.json
//              [--size BYTES] [--trace 0|1] [--trace-file F] [--trace-window S]
//
// Exit status: 0 when every byte matched, 1 on a mismatch, 2 on a usage
// or set-up error. A run whose load generator fell behind is still
// exit 0 but marked "valid": false (the host stalled, not the program).
#include <malloc.h>
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "datagen/zipf_text.hpp"
#include "e2e.hpp"

#ifndef GOMP_BENCH_BUILD_TYPE
#define GOMP_BENCH_BUILD_TYPE "unknown"
#endif

namespace gomp_bench {

void write_file(const std::string& path, gompresso::ByteSpan data) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  gompresso::check(out.good(), "gomp_bench: cannot write an input file");
}

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  gompresso::check(in.good(), "gomp_bench: cannot read an input file");
  return Bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

namespace {

const char* const kWorkloads[] = {"native_scan", "gzip_scan", "range_serve",
                                  "compress_write"};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "gomp_bench: %s\nusage: gomp_bench --workload W --seed S --seconds N"
               " --threads T --workdir DIR --out RUN.json [--size BYTES] [--trace 0|1]"
               " [--trace-file F] [--trace-window S]\n",
               why.c_str());
  std::exit(2);
}

Config parse_args(int argc, char** argv, std::string& out) {
  Config cfg;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc)
      usage(std::string("bad argument ") + argv[i]);
    kv[argv[i] + 2] = argv[i + 1];
  }
  const auto take = [&](const char* key) {
    const auto it = kv.find(key);
    if (it == kv.end()) return std::string();
    std::string v = it->second;
    kv.erase(it);
    return v;
  };
  const auto number = [&](const char* key, double fallback) {
    const std::string v = take(key);
    if (v.empty()) return fallback;
    char* end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (*end != '\0' || !std::isfinite(d) || d < 0) usage(std::string("bad --") + key);
    return d;
  };
  cfg.workload = take("workload");
  cfg.seed = static_cast<std::uint64_t>(number("seed", 1));
  cfg.seconds = number("seconds", cfg.seconds);
  cfg.warmup = std::min(2.0, 0.2 * cfg.seconds);
  cfg.threads = static_cast<std::size_t>(number("threads", double(cfg.threads)));
  cfg.size = static_cast<std::size_t>(number("size", double(cfg.size)));
  cfg.trace = number("trace", 0) != 0;
  cfg.trace_window = number("trace-window", cfg.trace_window);
  cfg.workdir = take("workdir");
  cfg.trace_file = take("trace-file");
  out = take("out");
  if (!kv.empty()) usage("unknown option --" + kv.begin()->first);
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), cfg.workload) ==
      std::end(kWorkloads))
    usage("unknown workload '" + cfg.workload + "'");
  if (cfg.workdir.empty() || out.empty()) usage("--workdir and --out are required");
  if (cfg.threads == 0 || cfg.seconds <= 0 || cfg.size == 0) usage("bad sizes");
  return cfg;
}

int shell(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

Inputs make_inputs(const Config& cfg) {
  Inputs in;
  // The text is a run of 1 MiB documents, each from its own seed derived
  // from the run seed. A single document's vocabulary moves the
  // compression ratio by ~2% from seed to seed; 64 of them hold the
  // spread across seeds to ~0.1%, so seeds vary the bytes without
  // varying the workload.
  constexpr std::size_t kDocumentBytes = 1u << 20;
  in.plain.reserve(cfg.size);
  for (std::uint64_t k = 0; in.plain.size() < cfg.size; ++k) {
    gompresso::datagen::WikipediaConfig text;
    text.seed = cfg.seed * 0x9E3779B97F4A7C15ull + k;
    const Bytes doc = gompresso::datagen::make_wikipedia_xml(
        std::min(kDocumentBytes, cfg.size - in.plain.size()), text);
    in.plain.insert(in.plain.end(), doc.begin(), doc.end());
  }
  in.plain_path = cfg.workdir + "/plain.xml";
  if (cfg.workload == "gzip_scan" || cfg.workload == "compress_write")
    write_file(in.plain_path, in.plain);
  if (cfg.workload == "gzip_scan") {
    if (shell("gzip --version >/dev/null 2>&1") != 0)
      throw gompresso::Error("gzip_scan needs the system gzip, which was not found");
    in.gz_path = in.plain_path + ".gz";
    if (shell("gzip -6 -n -c '" + in.plain_path + "' > '" + in.gz_path + "'") != 0)
      throw gompresso::Error("gzip -6 failed");
    if (shell("gzip -t '" + in.gz_path + "'") != 0)
      throw gompresso::Error("gzip -t rejected the gzip corpus");
  }
  if (cfg.workload == "native_scan" || cfg.workload == "range_serve") {
    gompresso::CompressOptions opt;
    opt.num_threads = cfg.threads;
    in.gmpz_path = cfg.workdir + "/plain.gmpz";
    write_file(in.gmpz_path, gompresso::compress(in.plain, opt));
  }
  return in;
}

/// A /proc/self/status field in kB; empty when unreadable.
Opt status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':')
      return std::strtod(line.c_str() + n + 1, nullptr);
  }
  return std::nullopt;
}

/// Resets VmHWM to the current RSS ("5" > clear_refs, Linux 4.0+).
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return f.good();
}

struct SpanRow {
  std::string name;
  std::uint64_t count = 0;
  double busy_s = 0;
  double share = 0;  // busy / (traced wall x T)
};

std::vector<SpanRow> span_table(double traced_s, std::size_t threads) {
  std::map<std::string, SpanRow> rows;
  for (const gompresso::obs::TraceEvent& e : gompresso::obs::Tracer::instance().collect()) {
    SpanRow& row = rows[std::string(e.category) + "/" + e.name];
    row.count++;
    row.busy_s += static_cast<double>(e.dur_ns) / 1e9;
  }
  std::vector<SpanRow> out;
  for (auto& [name, row] : rows) {
    row.name = name;
    row.share = traced_s > 0 ? row.busy_s / (traced_s * static_cast<double>(threads)) : 0;
    out.push_back(row);
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRow& a, const SpanRow& b) { return a.busy_s > b.busy_s; });
  return out;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(Opt v) {
  if (!v || !std::isfinite(*v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", *v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (const Metric& m : ms) {
    if (out.size() > 1) out += ",";
    out += "\n    " + json_str(m.name) + ": {\"value\": " + json_num(m.value) +
           ", \"unit\": " + json_str(m.unit) + ", \"note\": " + json_str(m.note) + "}";
  }
  return out + "\n  }";
}

void write_json(const std::string& path, const Config& cfg, const Report& r,
                const std::vector<SpanRow>& spans, std::uint64_t dropped) {
  std::ostringstream o;
  o << "{\n  \"workload\": " << json_str(cfg.workload) << ",\n  \"seed\": " << cfg.seed
    << ",\n  \"threads\": " << cfg.threads
    << ",\n  \"hardware_threads\": " << std::thread::hardware_concurrency()
    << ",\n  \"build_type\": " << json_str(GOMP_BENCH_BUILD_TYPE)
    << ",\n  \"size_bytes\": " << cfg.size << ",\n  \"seconds\": " << json_num(cfg.seconds)
    << ",\n  \"warmup_s\": " << json_num(cfg.warmup) << ",\n  \"trace\": " << cfg.trace
    << ",\n  \"correct\": " << (r.correct ? "true" : "false")
    << ",\n  \"valid\": " << (r.valid ? "true" : "false") << ",\n  \"attempted\": "
    << r.attempted << ",\n  \"failed\": " << r.failed
    << ",\n  \"end_to_end\": " << json_metrics(r.end_to_end)
    << ",\n  \"per_layer\": " << json_metrics(r.per_layer) << ",\n  \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    o << (i ? ", " : "") << "{\"name\": " << json_str(spans[i].name)
      << ", \"count\": " << spans[i].count << ", \"busy_s\": " << json_num(spans[i].busy_s)
      << ", \"share\": " << json_num(spans[i].share) << "}";
  }
  o << "],\n  \"trace_file\": " << json_str(cfg.trace ? cfg.trace_file : "")
    << ",\n  \"trace_dropped\": " << dropped << ",\n  \"notes\": [";
  for (std::size_t i = 0; i < r.notes.size(); ++i)
    o << (i ? ", " : "") << json_str(r.notes[i]);
  o << "]\n}\n";
  const std::string s = o.str();
  write_file(path, gompresso::ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()),
                                       s.size()));
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("  %s\n", title);
  for (const Metric& m : ms) {
    if (m.value)
      std::printf("    %-34s %14.6g %-16s %s\n", m.name.c_str(), *m.value, m.unit.c_str(),
                  m.note.c_str());
    else
      std::printf("    %-34s %14s %-16s\n", m.name.c_str(), "-", m.unit.c_str());
  }
}

int run(const Config& cfg, const std::string& out) {
  Inputs in = make_inputs(cfg);

  // Memory baseline: inputs built, freed heap returned to the kernel.
  // VmHWM is reset here and read once when the workload returns, so the
  // peak covers set-up, warm-up and the window, short spikes included.
  malloc_trim(0);
  const Opt rss_base = status_kb("VmRSS");
  if (!rss_base || !reset_peak_rss())
    throw gompresso::Error("peak_mem_MB needs /proc/self/status and clear_refs");

  Report r;
  if (cfg.workload == "native_scan") run_scan(cfg, in, false, r);
  if (cfg.workload == "gzip_scan") run_scan(cfg, in, true, r);
  if (cfg.workload == "range_serve") run_range_serve(cfg, in, r);
  if (cfg.workload == "compress_write") run_compress_write(cfg, in, r);
  const Opt hwm = status_kb("VmHWM");
  if (!hwm) throw gompresso::Error("peak_mem_MB needs VmHWM in /proc/self/status");
  r.e2e("peak_mem_MB", (*hwm - *rss_base) * 1024 / kMB, "MB", "VmHWM - VmRSS after inputs");
  r.layer("client.error_rate",
          r.attempted ? Opt(double(r.failed) / double(r.attempted)) : std::nullopt, "ratio");

  std::vector<SpanRow> spans;
  std::uint64_t dropped = 0;
  if (cfg.trace) {
    gompresso::obs::Tracer& tracer = gompresso::obs::Tracer::instance();
    spans = span_table(r.traced_s, cfg.threads);
    dropped = tracer.dropped();
    if (!cfg.trace_file.empty() && !tracer.write_chrome_trace(cfg.trace_file))
      r.notes.push_back("cannot write " + cfg.trace_file);
    run_replays(cfg, in, r);
  }
  write_json(out, cfg, r, spans, dropped);

  std::printf("gomp_bench %s  seed=%llu  T=%zu  size=%zu  window=%.1fs  trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed), cfg.threads,
              cfg.size, cfg.seconds, cfg.trace ? 1 : 0);
  std::printf("  attempted=%llu failed=%llu correct=%s valid=%s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), r.correct ? "yes" : "NO",
              r.valid ? "yes" : "NO");
  print_metrics("end-to-end", r.end_to_end);
  print_metrics("per-layer", r.per_layer);
  if (cfg.trace) {
    std::printf("  spans over %.2f s traced x %zu threads (%llu dropped)\n", r.traced_s,
                cfg.threads, static_cast<unsigned long long>(dropped));
    for (const SpanRow& s : spans)
      std::printf("    %-34s %8llu %10.4f s %7.1f%%\n", s.name.c_str(),
                  static_cast<unsigned long long>(s.count), s.busy_s, 100 * s.share);
  }
  for (const std::string& n : r.notes) std::printf("  note: %s\n", n.c_str());
  if (!r.valid) std::fprintf(stderr, "gomp_bench: invalid run, see notes\n");
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace gomp_bench

int main(int argc, char** argv) {
  std::string out;
  const gomp_bench::Config cfg = gomp_bench::parse_args(argc, argv, out);
  try {
    return gomp_bench::run(cfg, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gomp_bench: error: %s\n", e.what());
    return 2;
  }
}
