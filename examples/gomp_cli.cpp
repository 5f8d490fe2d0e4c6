// gomp: a gzip-style command-line front end for Gompresso.
//
// Usage:
//   gomp c [options] <input> <output>    compress a file
//   gomp d <input> <output>              decompress a file (any container)
//   gomp info <input>                    print container metadata
//   gomp cat [options] <input> [out]     stream-decode via a DecodeSession
//   gomp range <input> <off> <len> [out] random-access read via a session
//   gomp index <input> [sidecar]         write the seek-index sidecar
//   gomp verify [options] <input>        scrub every block, report health
//   gomp stats [options] <input>         read the archive, dump metrics
//   gomp serve [options] <input>         HTTP range-request daemon (see
//                                        src/net/server.hpp for the
//                                        robustness contract)
//
// Compression options:
//   --byte            use Gompresso/Byte (default: Gompresso/Bit)
//   --no-de           disable dependency elimination
//   --block <KB>      data block size in KiB (default 256)
//   --window <B>      sliding window in bytes, power of two (default 8192)
//   --subblock <N>    sequences per sub-block (default 16)
//   --effort <N>      match-finder chain depth (default 16)
// Session options (cat/range/verify):
//   --threads <N>     prefetch pipeline threads (0 = shared pool)
//   --inflight <N>    prefetch window in blocks (default 4)
//   --cache <N>       decoded-block LRU capacity (default 8)
//   --index <path>    load the seek index from a sidecar (see gomp index)
//   --inject-faults <spec>
//                     wrap the source in the deterministic fault harness;
//                     spec grammar is FaultPlan::parse (fault_source.hpp),
//                     e.g. "rate=0.01,burst=1,seed=7" or "flip@4096+64"
//   --trace <path>    write a Chrome trace_event JSON of the run (open in
//                     chrome://tracing or https://ui.perfetto.dev); also
//                     accepted by `gomp d` and `gomp stats`
// stats additionally accepts:
//   --json            machine-readable snapshot on stdout (session stats
//                     + every registry metric) instead of the text table
// cat additionally accepts:
//   --best-effort     zero-fill unrecoverable blocks instead of failing;
//                     damaged extents go to stderr, exit code 1 if any
// d/info/cat/range/verify/stats/serve accept GMPZ containers, GMPS streams,
// and gzip files alike (the container is sniffed; gzip gets the
// rapidgzip-style parallel index, see src/ingest/). With no output
// path the bytes go to stdout and the stats to stderr. `gomp index`
// writes the sidecar flavor matching the container (.gmpx / .gzix).
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/gompresso.hpp"
#include "format/sniff.hpp"
#include "ingest/gzip_backend.hpp"
#include "net/server.hpp"
#include "serve/fault_source.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace gompresso;

/// Set by SIGINT/SIGTERM. The long-running verbs (cat, verify, serve)
/// poll it between units of work so an interrupt still finishes the
/// TraceGuard and flushes partial output instead of dying mid-write.
volatile std::sig_atomic_t g_interrupted = 0;

void handle_signal(int) { g_interrupted = 1; }

void install_signal_handlers() {
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
}

/// 128 + SIGINT, the shell convention for "killed by ^C" — scripts see
/// the interruption, but only after the partial stats and trace landed.
constexpr int kExitInterrupted = 130;

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  check(in.good(), "cannot open input file");
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0);
  Bytes data(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(data.data()), size);
  check(in.good(), "read failed");
  return data;
}

void write_file(const std::string& path, const Bytes& data) {
  std::ofstream out(path, std::ios::binary);
  check(out.good(), "cannot open output file");
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  check(out.good(), "write failed");
}

int usage() {
  std::fprintf(stderr,
               "usage: gomp c [--byte] [--no-de] [--block KB] [--window B]\n"
               "              [--subblock N] [--effort N] <input> <output>\n"
               "       gomp d [--trace OUT] <input> <output>\n"
               "       gomp info <input>\n"
               "       gomp cat [--threads N] [--inflight N] [--cache N]\n"
               "                [--index SIDECAR] [--inject-faults SPEC]\n"
               "                [--trace OUT] [--best-effort] <input> [<output>]\n"
               "       gomp range [session opts] <input> <offset> <len> [<output>]\n"
               "       gomp index <input> [<sidecar>]\n"
               "       gomp verify [session opts] <input>\n"
               "       gomp stats [session opts] [--json] <input>\n"
               "       gomp serve [session opts] [--port N] [--workers N]\n"
               "                  [--max-conns N] [--pending N] [--deadline-ms N]\n"
               "                  [--budget-mb N] [--degraded] <input>\n");
  return 2;
}

/// Strict unsigned parser: std::stoul-family functions accept negative
/// input by wrapping (no exception), so "--threads -1" would otherwise
/// request ~2^64 threads and ThreadPool would try to spawn them. Rejects
/// sign characters, trailing junk, and anything above `max_value`.
bool parse_u64(const std::string& s, std::uint64_t max_value, std::uint64_t& out) {
  if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0]))) return false;
  std::size_t pos = 0;
  std::uint64_t v = 0;
  try {
    v = std::stoull(s, &pos);
  } catch (const std::exception&) {
    return false;
  }
  if (pos != s.size() || v > max_value) return false;
  out = v;
  return true;
}

/// parse_u64 for memory-sized counts: additionally rejects values that
/// would not fit std::size_t (32-bit targets).
bool parse_count(const std::string& s, std::uint64_t max_value,
                 std::size_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64(s, max_value, v) ||
      v > std::numeric_limits<std::size_t>::max()) {
    return false;
  }
  out = static_cast<std::size_t>(v);
  return true;
}

constexpr std::uint64_t kMaxSessionThreads = 1024;
constexpr std::uint64_t kMaxSessionBlocks = 1u << 20;  // window / cache caps

/// Parses the session flags shared by cat/range/verify; leaves positional
/// arguments in `positional`. `best_effort` non-null accepts the
/// cat-only --best-effort flag. Returns false on a malformed flag.
bool parse_session_args(int argc, char** argv, serve::SessionOptions& opt,
                        std::string& index_path, std::string& fault_spec,
                        std::string& trace_path,
                        std::vector<std::string>& positional,
                        bool* best_effort = nullptr) {
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      if (!parse_count(argv[++i], kMaxSessionThreads, opt.num_threads)) return false;
    } else if (arg == "--inflight" && i + 1 < argc) {
      if (!parse_count(argv[++i], kMaxSessionBlocks, opt.max_inflight_blocks)) return false;
    } else if (arg == "--cache" && i + 1 < argc) {
      if (!parse_count(argv[++i], kMaxSessionBlocks, opt.cache_blocks)) return false;
    } else if (arg == "--index" && i + 1 < argc) {
      index_path = argv[++i];
    } else if (arg == "--inject-faults" && i + 1 < argc) {
      fault_spec = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (best_effort != nullptr && arg == "--best-effort") {
      *best_effort = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return false;
    } else {
      positional.push_back(arg);
    }
  }
  return true;
}

/// Opens a session over `input_path` through gompresso::open() — the
/// container (GMPZ, GMPS, or gzip) is sniffed from the leading bytes,
/// and the sidecar (".gmpx" or ".gzix") is loaded when given. A
/// non-empty `fault_spec` interposes the fault-injection harness between
/// the file and the session (the spec's faults hit the index scan too —
/// arm offsets accordingly).
std::unique_ptr<DecodeSession> open_session(const std::string& input_path,
                                            const std::string& index_path,
                                            const std::string& fault_spec,
                                            const serve::SessionOptions& opt) {
  std::unique_ptr<serve::ByteSource> source = serve::open_file_source(input_path);
  if (!fault_spec.empty()) {
    source = std::make_unique<serve::FaultInjectingByteSource>(
        std::move(source), serve::FaultPlan::parse(fault_spec));
  }
  OpenOptions oopt;
  oopt.session = opt;
  oopt.sidecar_path = index_path;
  return gompresso::open(std::move(source), oopt);
}

/// Arms the tracer when a --trace path was given. finish() must run
/// after the session is destroyed (its destructor joins in-flight
/// prefetch decodes) so every span lands in the written file.
class TraceGuard {
 public:
  explicit TraceGuard(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) obs::Tracer::instance().start();
  }

  void finish() {
    if (path_.empty() || done_) return;
    done_ = true;
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.stop();
    check(tracer.write_chrome_trace(path_), "cannot write trace file");
    std::fprintf(stderr, "trace written to %s (view in chrome://tracing)\n",
                 path_.c_str());
  }

 private:
  std::string path_;
  bool done_ = false;
};

void print_session_stats(const DecodeSession& session, std::uint64_t bytes,
                         double seconds) {
  const serve::SessionStats st = session.stats();
  std::fprintf(stderr,
               "%llu bytes in %.3fs (%.1f MB/s), %zu blocks indexed, "
               "%llu decoded, %llu cache hits, %llu evictions, "
               "peak pooled %.1f MiB\n",
               static_cast<unsigned long long>(bytes), seconds,
               seconds > 0 ? bytes / 1e6 / seconds : 0.0,
               session.num_blocks(),
               static_cast<unsigned long long>(st.blocks_decoded),
               static_cast<unsigned long long>(st.cache_hits),
               static_cast<unsigned long long>(st.evictions),
               st.pool.peak_outstanding_bytes / 1048576.0);
  if (st.transient_errors > 0 || st.permanent_errors > 0) {
    std::fprintf(stderr,
                 "faults: %llu transient (%llu retries), %llu permanent, "
                 "%llu bytes zero-filled\n",
                 static_cast<unsigned long long>(st.transient_errors),
                 static_cast<unsigned long long>(st.retries),
                 static_cast<unsigned long long>(st.permanent_errors),
                 static_cast<unsigned long long>(st.bytes_zero_filled));
  }
}

int cmd_cat(int argc, char** argv) {
  serve::SessionOptions opt;
  std::string index_path, fault_spec, trace_path;
  std::vector<std::string> positional;
  bool best_effort = false;
  if (!parse_session_args(argc, argv, opt, index_path, fault_spec, trace_path,
                          positional, &best_effort)) {
    return usage();
  }
  if (positional.empty() || positional.size() > 2) return usage();

  install_signal_handlers();
  TraceGuard trace(trace_path);
  auto session = open_session(positional[0], index_path, fault_spec, opt);
  std::FILE* out = positional.size() == 2
                       ? std::fopen(positional[1].c_str(), "wb")
                       : stdout;
  check(out != nullptr, "cannot open output file");

  Stopwatch timer;
  Bytes chunk(kStreamCopyChunk);
  serve::DamageReport damage;
  std::uint64_t total = 0;
  std::size_t n;
  while (g_interrupted == 0) {
    const MutableByteSpan dst(chunk.data(), chunk.size());
    n = best_effort ? session->read_at_damage_tolerant(total, dst, &damage)
                    : session->read(dst);
    if (n == 0) break;
    check(std::fwrite(chunk.data(), 1, n, out) == n, "write failed");
    total += n;
  }
  const double seconds = timer.seconds();
  if (out != stdout) std::fclose(out);
  if (g_interrupted != 0) {
    std::fprintf(stderr, "gomp cat: interrupted, %llu bytes written\n",
                 static_cast<unsigned long long>(total));
  }
  print_session_stats(*session, total, seconds);
  session.reset();  // join in-flight prefetch before writing the trace
  trace.finish();
  for (const serve::DamagedExtent& e : damage.extents) {
    std::fprintf(stderr,
                 "damaged: block %zu, bytes %llu..%llu zero-filled (%s)\n",
                 e.block, static_cast<unsigned long long>(e.offset),
                 static_cast<unsigned long long>(e.offset + e.length),
                 e.message.c_str());
  }
  if (g_interrupted != 0) return kExitInterrupted;
  return damage.clean() ? 0 : 1;
}

int cmd_verify(int argc, char** argv) {
  serve::SessionOptions opt;
  std::string index_path, fault_spec, trace_path;
  std::vector<std::string> positional;
  if (!parse_session_args(argc, argv, opt, index_path, fault_spec, trace_path,
                          positional)) {
    return usage();
  }
  if (positional.size() != 1) return usage();

  install_signal_handlers();
  TraceGuard trace(trace_path);
  auto session = open_session(positional[0], index_path, fault_spec, opt);
  Stopwatch timer;
  // Block-by-block scrub (same semantics as verify_archive, which
  // decodes every block damage-tolerantly) so an interrupt lands between
  // blocks: the partial report and the trace still flush.
  serve::DamageReport damage;
  const std::size_t blocks = session->num_blocks();
  std::size_t scanned = 0;
  Bytes block_buf;
  for (std::size_t b = 0; b < blocks && g_interrupted == 0; ++b) {
    const serve::BackendBlock e = session->block_extent(b);
    block_buf.resize(static_cast<std::size_t>(e.uncomp_size));
    session->read_at_damage_tolerant(
        e.uncomp_offset, MutableByteSpan(block_buf.data(), block_buf.size()),
        &damage);
    ++scanned;
  }
  const double seconds = timer.seconds();

  std::size_t damaged_blocks = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    if (session->block_health(b) == serve::BlockHealth::kDamaged) ++damaged_blocks;
  }
  session.reset();
  trace.finish();
  std::printf("%s: %zu/%zu blocks scanned in %.3fs, %zu damaged%s\n",
              positional[0].c_str(), scanned, blocks, seconds, damaged_blocks,
              g_interrupted != 0 ? " (interrupted)" : "");
  for (const serve::DamagedExtent& e : damage.extents) {
    std::printf("  block %zu: bytes %llu..%llu unrecoverable (%s)\n", e.block,
                static_cast<unsigned long long>(e.offset),
                static_cast<unsigned long long>(e.offset + e.length),
                e.message.c_str());
  }
  if (g_interrupted != 0) return kExitInterrupted;
  return damage.clean() ? 0 : 1;
}

/// `gomp serve`: the range-request daemon. Loops until SIGINT/SIGTERM,
/// then drains gracefully (finish or shed in-flight requests, flush
/// metrics + trace, deterministic exit 0).
int cmd_serve(int argc, char** argv) {
  serve::SessionOptions sopt;
  std::string index_path, fault_spec, trace_path;
  std::vector<std::string> positional;
  net::ServeOptions opt;
  // Strip the serve-plane flags, then reuse the shared session parser
  // (which rejects unknown flags) for the rest.
  std::vector<char*> rest;
  std::uint64_t v = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      if (!parse_u64(argv[++i], 65535, v)) return usage();
      opt.port = static_cast<std::uint16_t>(v);
    } else if (arg == "--workers" && i + 1 < argc) {
      if (!parse_u64(argv[++i], 256, v) || v == 0) return usage();
      opt.worker_threads = static_cast<std::size_t>(v);
    } else if (arg == "--max-conns" && i + 1 < argc) {
      if (!parse_u64(argv[++i], 65536, v) || v == 0) return usage();
      opt.max_connections = static_cast<std::size_t>(v);
    } else if (arg == "--pending" && i + 1 < argc) {
      if (!parse_u64(argv[++i], 65536, v) || v == 0) return usage();
      opt.pending_requests = static_cast<std::size_t>(v);
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      if (!parse_u64(argv[++i], 3600'000, v)) return usage();
      opt.request_deadline_ms = static_cast<int>(v);
    } else if (arg == "--budget-mb" && i + 1 < argc) {
      if (!parse_u64(argv[++i], 1u << 20, v) || v == 0) return usage();
      opt.queued_bytes_budget = v << 20;
    } else if (arg == "--degraded") {
      opt.degraded = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (!parse_session_args(static_cast<int>(rest.size()), rest.data(), sopt,
                          index_path, fault_spec, trace_path, positional)) {
    return usage();
  }
  if (positional.size() != 1) return usage();
  const std::string path = positional[0];

  install_signal_handlers();
  TraceGuard trace(trace_path);

  // The backend always comes from a clean scan (or a sidecar): faults
  // are a data-plane concern, and a daemon that cannot trust its
  // geometry should not start. open_backend() sniffs the container, so
  // `gomp serve any.gz` serves ranges of the decompressed stream.
  OpenOptions oopt;
  oopt.session = sopt;
  oopt.sidecar_path = index_path;
  std::shared_ptr<serve::ContainerBackend> backend;
  {
    const auto clean = serve::open_file_source(path);
    backend = open_backend(*clean, oopt);
  }
  net::SourceFactory factory =
      [path, fault_spec]() -> std::unique_ptr<serve::ByteSource> {
    std::unique_ptr<serve::ByteSource> src = serve::open_file_source(path);
    if (!fault_spec.empty()) {
      src = std::make_unique<serve::FaultInjectingByteSource>(
          std::move(src), serve::FaultPlan::parse(fault_spec));
    }
    return src;
  };
  opt.session = sopt;

  net::Server server(std::move(factory), std::move(backend), opt);
  server.start();
  // Parseable by the CI smoke job and the signal tests: port first.
  std::printf("gomp serve: listening on 127.0.0.1:%u (%llu bytes, %s)\n",
              static_cast<unsigned>(server.port()),
              static_cast<unsigned long long>(server.archive_size()),
              path.c_str());
  std::fflush(stdout);

  while (g_interrupted == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "gomp serve: draining...\n");
  server.stop();
  const net::ServerStats st = server.stats();
  std::fprintf(
      stderr,
      "gomp serve: %llu requests (%llu 200, %llu 206, %llu 4xx, %llu shed, "
      "%llu 502), %llu conns (%llu shed), %.1f MiB sent, peak queued %.1f "
      "MiB\n",
      static_cast<unsigned long long>(st.requests),
      static_cast<unsigned long long>(st.ok_200),
      static_cast<unsigned long long>(st.partial_206),
      static_cast<unsigned long long>(st.client_4xx),
      static_cast<unsigned long long>(st.shed_503),
      static_cast<unsigned long long>(st.failed_502),
      static_cast<unsigned long long>(st.accepted),
      static_cast<unsigned long long>(st.shed_connections),
      st.bytes_sent / 1048576.0, st.peak_queued_bytes / 1048576.0);
  trace.finish();
  return 0;
}

int cmd_range(int argc, char** argv) {
  serve::SessionOptions opt;
  std::string index_path, fault_spec, trace_path;
  std::vector<std::string> positional;
  if (!parse_session_args(argc, argv, opt, index_path, fault_spec, trace_path,
                          positional)) {
    return usage();
  }
  if (positional.size() < 3 || positional.size() > 4) return usage();
  // Strict parsing for the positional numbers too: stoull wraps "-1"
  // into 2^64-1, which read_bytes_at clamps to an empty read — the typo
  // would be silently masked instead of rejected. The offset is a file
  // position, not a memory-sized count, so it stays 64-bit everywhere.
  std::uint64_t offset = 0;
  std::size_t length = 0;
  if (!parse_u64(positional[1], UINT64_MAX, offset) ||
      !parse_count(positional[2], UINT64_MAX, length)) {
    return usage();
  }

  TraceGuard trace(trace_path);
  auto session = open_session(positional[0], index_path, fault_spec, opt);
  Stopwatch timer;
  const Bytes data = session->read_bytes_at(offset, length);
  const double seconds = timer.seconds();

  std::FILE* out = positional.size() == 4
                       ? std::fopen(positional[3].c_str(), "wb")
                       : stdout;
  check(out != nullptr, "cannot open output file");
  check(std::fwrite(data.data(), 1, data.size(), out) == data.size(), "write failed");
  if (out != stdout) std::fclose(out);
  print_session_stats(*session, data.size(), seconds);
  session.reset();
  trace.finish();
  return 0;
}

int cmd_index(int argc, char** argv) {
  if (argc < 1 || argc > 2) return usage();
  const std::string input_path = argv[0];
  const auto source = serve::open_file_source(input_path);

  // Sniff the container so `gomp index any.gz` writes the matching
  // sidecar flavor (".gzix" seek index vs the native ".gmpx").
  Bytes prefix(static_cast<std::size_t>(
      std::min<std::uint64_t>(source->size(), format::kSniffBytes)));
  if (!prefix.empty()) {
    source->read_at(0, MutableByteSpan(prefix.data(), prefix.size()));
  }
  if (format::sniff_container(ByteSpan(prefix.data(), prefix.size())) ==
      format::ContainerKind::kGzip) {
    const std::string sidecar_path = argc == 2 ? argv[1] : input_path + ".gzix";
    ingest::GzipIndexOptions gopt;
    gopt.pool = &default_pool();
    const ingest::GzipIndex index = ingest::GzipIndex::build(*source, gopt);
    index.save(sidecar_path);
    std::printf("%s: %zu members, %zu chunks, %llu uncompressed bytes -> %s\n",
                input_path.c_str(), index.num_members(), index.num_chunks(),
                static_cast<unsigned long long>(index.total_uncompressed()),
                sidecar_path.c_str());
    return 0;
  }

  const std::string sidecar_path = argc == 2 ? argv[1] : input_path + ".gmpx";
  const serve::SeekIndex index = serve::SeekIndex::build(*source);
  index.save(sidecar_path);
  std::printf("%s: %zu segments, %zu blocks, %llu uncompressed bytes -> %s\n",
              input_path.c_str(), index.num_segments(), index.num_blocks(),
              static_cast<unsigned long long>(index.total_uncompressed()),
              sidecar_path.c_str());
  return 0;
}

int cmd_compress(int argc, char** argv) {
  CompressOptions opt;
  std::string input_path, output_path;
  // Same strict parsing as the session flags: stoul would wrap "--block
  // -1" into a ~4 GiB block size instead of rejecting it.
  std::size_t v = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--byte") {
      opt.codec = Codec::kByte;
    } else if (arg == "--no-de") {
      opt.dependency_elimination = false;
    } else if (arg == "--block" && i + 1 < argc) {
      if (!parse_count(argv[++i], 1u << 20, v) || v == 0) return usage();  // <= 1 GiB
      opt.block_size = static_cast<std::uint32_t>(v) * 1024;
    } else if (arg == "--window" && i + 1 < argc) {
      if (!parse_count(argv[++i], 1u << 30, v) || v == 0) return usage();
      opt.window_size = static_cast<std::uint32_t>(v);
    } else if (arg == "--subblock" && i + 1 < argc) {
      if (!parse_count(argv[++i], 1u << 20, v) || v == 0) return usage();
      opt.tokens_per_subblock = static_cast<std::uint32_t>(v);
    } else if (arg == "--effort" && i + 1 < argc) {
      if (!parse_count(argv[++i], 1u << 20, v)) return usage();
      opt.match_effort = static_cast<std::uint32_t>(v);
    } else if (input_path.empty()) {
      input_path = arg;
    } else if (output_path.empty()) {
      output_path = arg;
    } else {
      return usage();
    }
  }
  if (input_path.empty() || output_path.empty()) return usage();

  const Bytes input = read_file(input_path);
  CompressStats stats;
  Stopwatch timer;
  const Bytes file = compress(input, opt, &stats);
  const double seconds = timer.seconds();
  write_file(output_path, file);
  std::printf("%s: %zu -> %zu bytes, ratio %.3f:1, %.1f MB/s, %llu blocks\n",
              input_path.c_str(), input.size(), file.size(), stats.ratio(),
              input.size() / 1e6 / seconds,
              static_cast<unsigned long long>(stats.blocks));
  return 0;
}

int cmd_decompress(int argc, char** argv) {
  DecompressOptions opt;
  std::string input_path, output_path, trace_path;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (input_path.empty()) {
      input_path = arg;
    } else if (output_path.empty()) {
      output_path = arg;
    } else {
      return usage();
    }
  }
  if (input_path.empty() || output_path.empty()) return usage();

  // decompress_stream() is the sniffer behind decompress_file(); the
  // streams are opened here so that nothing touches the output before the
  // input is known to open, and so that a failed decode removes only an
  // output file this call created or truncated.
  std::ifstream in(input_path, std::ios::binary);
  check(in.good(), "cannot open input file");
  std::error_code same_ec;  // a missing output is not the same file
  check(!(std::filesystem::is_regular_file(input_path, same_ec) &&
          std::filesystem::equivalent(input_path, output_path, same_ec)),
        "input and output are the same file");
  std::ofstream out(output_path, std::ios::binary);
  check(out.good(), "cannot open output file");
  TraceGuard trace(trace_path);
  Stopwatch timer;
  std::uint64_t produced = 0;
  try {
    produced = decompress_stream(in, out, opt);
    out.close();
    check(!out.fail(), "write failed");
  } catch (const Error&) {
    out.close();
    std::error_code ec;
    if (std::filesystem::is_regular_file(output_path, ec)) {
      std::filesystem::remove(output_path, ec);
    }
    throw;
  }
  const double seconds = timer.seconds();
  trace.finish();  // the decode session joins its workers before returning
  // A pipe (e.g. /dev/stdin, which takes the sequential decoder) has no
  // size to report.
  std::error_code ec;
  const std::uintmax_t compressed = std::filesystem::file_size(input_path, ec);
  const std::string from = ec ? "" : std::to_string(compressed) + " -> ";
  std::printf("%s: %s%llu bytes, %.2f GB/s\n", input_path.c_str(), from.c_str(),
              static_cast<unsigned long long>(produced), gb_per_sec(produced, seconds));
  return 0;
}

void append_session_json(std::string& out, const serve::SessionStats& st) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"blocks_decoded\":%llu,\"cache_hits\":%llu,\"demand_decodes\":%llu,"
      "\"prefetch_decodes\":%llu,\"decode_waits\":%llu,\"decode_failures\":%llu,"
      "\"evictions\":%llu,\"bytes_delivered\":%llu,\"retries\":%llu,"
      "\"transient_errors\":%llu,\"permanent_errors\":%llu,"
      "\"degraded_reads\":%llu,\"bytes_zero_filled\":%llu,"
      "\"pool_peak_bytes\":%llu}",
      static_cast<unsigned long long>(st.blocks_decoded),
      static_cast<unsigned long long>(st.cache_hits),
      static_cast<unsigned long long>(st.demand_decodes),
      static_cast<unsigned long long>(st.prefetch_decodes),
      static_cast<unsigned long long>(st.decode_waits),
      static_cast<unsigned long long>(st.decode_failures),
      static_cast<unsigned long long>(st.evictions),
      static_cast<unsigned long long>(st.bytes_delivered),
      static_cast<unsigned long long>(st.retries),
      static_cast<unsigned long long>(st.transient_errors),
      static_cast<unsigned long long>(st.permanent_errors),
      static_cast<unsigned long long>(st.degraded_reads),
      static_cast<unsigned long long>(st.bytes_zero_filled),
      static_cast<unsigned long long>(st.pool.peak_outstanding_bytes));
  out += buf;
}

/// `gomp stats`: performs a full sequential read of the archive through
/// a DecodeSession (each CLI invocation is a fresh process, so this IS
/// the workload being measured), then dumps the session stats plus the
/// whole process-wide metrics snapshot.
int cmd_stats(int argc, char** argv) {
  serve::SessionOptions opt;
  std::string index_path, fault_spec, trace_path;
  std::vector<std::string> positional;
  bool json = false;
  // --json is stats-only; strip it before the shared session parser.
  std::vector<char*> rest;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (!parse_session_args(static_cast<int>(rest.size()), rest.data(), opt,
                          index_path, fault_spec, trace_path, positional)) {
    return usage();
  }
  if (positional.size() != 1) return usage();

  TraceGuard trace(trace_path);
  serve::SessionStats st;
  std::size_t blocks = 0;
  std::uint64_t total = 0;
  double seconds = 0.0;
  {
    const auto session =
        open_session(positional[0], index_path, fault_spec, opt);
    blocks = session->num_blocks();
    Stopwatch timer;
    Bytes chunk(kStreamCopyChunk);
    while (true) {
      const std::size_t n =
          session->read(MutableByteSpan(chunk.data(), chunk.size()));
      if (n == 0) break;
      total += n;
    }
    seconds = timer.seconds();
    st = session->stats();
  }
  trace.finish();
  const obs::MetricsSnapshot snap = metrics_snapshot();

  if (json) {
    std::string out = "{\"schema_version\":1,\"source\":\"";
    // Paths with quotes/backslashes would need escaping; the registry's
    // own serializer handles its strings, this one stays simple because
    // the smoke scripts control the path.
    out += positional[0];
    out += "\",\"bytes\":";
    out += std::to_string(total);
    char buf[64];
    std::snprintf(buf, sizeof buf, ",\"seconds\":%.6f", seconds);
    out += buf;
    out += ",\"session\":";
    append_session_json(out, st);
    out += ",\"metrics\":";
    out += snap.to_json();
    out += "}\n";
    std::fwrite(out.data(), 1, out.size(), stdout);
    return 0;
  }

  std::printf("%s: %llu bytes in %.3fs (%.1f MB/s), %zu blocks\n",
              positional[0].c_str(), static_cast<unsigned long long>(total),
              seconds, seconds > 0 ? total / 1e6 / seconds : 0.0, blocks);
  std::printf("session: decoded=%llu hits=%llu demand=%llu prefetch=%llu "
              "waits=%llu evictions=%llu failures=%llu\n",
              static_cast<unsigned long long>(st.blocks_decoded),
              static_cast<unsigned long long>(st.cache_hits),
              static_cast<unsigned long long>(st.demand_decodes),
              static_cast<unsigned long long>(st.prefetch_decodes),
              static_cast<unsigned long long>(st.decode_waits),
              static_cast<unsigned long long>(st.evictions),
              static_cast<unsigned long long>(st.decode_failures));
  std::printf("metrics:\n");
  for (const obs::MetricValue& m : snap.metrics) {
    switch (m.kind) {
      case obs::MetricKind::kCounter:
        std::printf("  %-26s %12llu %s\n", m.name.c_str(),
                    static_cast<unsigned long long>(m.value), m.unit.c_str());
        break;
      case obs::MetricKind::kGauge:
        std::printf("  %-26s %12lld %s (gauge)\n", m.name.c_str(),
                    static_cast<long long>(m.gauge), m.unit.c_str());
        break;
      case obs::MetricKind::kHistogram:
        std::printf("  %-26s count=%llu mean=%.1f p50<=%llu p99<=%llu %s\n",
                    m.name.c_str(),
                    static_cast<unsigned long long>(m.hist.count()),
                    m.hist.mean(),
                    static_cast<unsigned long long>(m.hist.percentile(50.0)),
                    static_cast<unsigned long long>(m.hist.percentile(99.0)),
                    m.unit.c_str());
        break;
    }
  }
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 1) return usage();
  // open_backend() sniffs the container, so info reads GMPZ, GMPS and
  // gzip alike (gzip pays one index build; its blocks are index chunks).
  const std::unique_ptr<serve::ByteSource> source = serve::open_file_source(argv[0]);
  const std::shared_ptr<serve::ContainerBackend> backend = open_backend(*source);
  std::printf("container:           %s\n", backend->kind_name());
  std::printf("uncompressed size:   %llu B\n",
              static_cast<unsigned long long>(backend->total_uncompressed()));
  std::printf("blocks:              %zu\n", backend->num_blocks());
  if (const serve::SeekIndex* index = backend->seek_index()) {
    std::printf("segments:            %zu\n", index->num_segments());
    if (index->num_segments() == 0) return 0;
    const format::FileHeader& h = index->segment_header(0);
    std::printf("codec:               Gompresso/%s\n",
                h.codec == Codec::kBit ? "Bit" : "Byte");
    std::printf("dependency elim.:    %s\n", h.dependency_elimination ? "yes" : "no");
    std::printf("codeword limit:      %u bits\n", h.codeword_limit);
    std::printf("window size:         %u B\n", h.window_size);
    std::printf("match lengths:       %u..%u\n", h.min_match, h.max_match);
    std::printf("block size:          %u B\n", h.block_size);
    std::printf("tokens/sub-block:    %u\n", h.tokens_per_subblock);
  } else if (const ingest::GzipIndex* index = ingest::gzip_index(*backend)) {
    std::printf("members:             %llu\n",
                static_cast<unsigned long long>(index->num_members()));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "c") return cmd_compress(argc - 2, argv + 2);
    if (cmd == "d") return cmd_decompress(argc - 2, argv + 2);
    if (cmd == "info") return cmd_info(argc - 2, argv + 2);
    if (cmd == "cat") return cmd_cat(argc - 2, argv + 2);
    if (cmd == "range") return cmd_range(argc - 2, argv + 2);
    if (cmd == "index") return cmd_index(argc - 2, argv + 2);
    if (cmd == "verify") return cmd_verify(argc - 2, argv + 2);
    if (cmd == "stats") return cmd_stats(argc - 2, argv + 2);
    if (cmd == "serve") return cmd_serve(argc - 2, argv + 2);
  } catch (const gompresso::Error& e) {
    std::fprintf(stderr, "gomp: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Flag parsing rejects malformed numbers via parse_u64/parse_count
    // (no exceptions); this backstop covers everything else the standard
    // library can throw (bad_alloc, filesystem errors) so a failure
    // prints a message instead of reaching std::terminate.
    std::fprintf(stderr, "gomp: invalid argument (%s)\n", e.what());
    return usage();
  }
  return usage();
}
