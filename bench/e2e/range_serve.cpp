// range_serve: an in-process net::Server serves the GMPZ archive from
// file sources to 64 KiB ranged GETs over keep-alive connections.
//
//   1. Set-up: Server construction + start(), timed several times.
//   2. Open loop, 200 req/s: request i is due at start + i/200 on
//      connection i mod C. Latency runs from the due time, so a stall
//      also charges the requests queued behind it; the generator's own
//      lateness is recorded as sched lag.
//   3. Closed loop on the same connections: each sends its next request
//      as soon as the previous answer arrives (capacity).
//
// A request picks a 256 KiB page of the uncompressed space by Zipf
// s=1.1 over seed-shuffled ranks, then a uniform 64 KiB range inside
// it; every 206 body is compared with the plaintext.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>

#include "e2e.hpp"
#include "net/http.hpp"
#include "net/server.hpp"

namespace gomp_bench {
namespace {

namespace net = gompresso::net;

constexpr std::uint64_t kPageBytes = 256 * 1024;
constexpr std::uint64_t kRangeBytes = 64 * 1024;
constexpr double kRate = 200;             // open-loop requests per second
constexpr double kZipfS = 1.1;
constexpr double kOpenShare = 0.6;        // of the window; the rest is closed loop
constexpr std::size_t kMaxConns = 4;
constexpr int kSetups = 7;
constexpr double kFailedLatencyS = 10;    // a failed request misses every limit
constexpr double kLagLimitMs = 1;         // generator lag p99 above this: invalid run
constexpr double kP99LimitMs = 10;

double uniform01(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// Zipf-over-pages request offsets.
class OffsetGen {
 public:
  OffsetGen(std::uint64_t size, std::uint64_t seed)
      : page_(std::min(kPageBytes, size)), perm_(std::max<std::uint64_t>(1, size / page_)) {
    for (std::size_t i = 0; i < perm_.size(); ++i) perm_[i] = i;
    std::mt19937_64 rng(seed);
    for (std::size_t i = perm_.size() - 1; i > 0; --i)
      std::swap(perm_[i], perm_[rng() % (i + 1)]);
    double acc = 0;
    for (std::size_t k = 1; k <= perm_.size(); ++k) {
      acc += 1 / std::pow(double(k), kZipfS);
      cdf_.push_back(acc);
    }
    for (double& c : cdf_) c /= acc;
  }

  std::uint64_t next(std::mt19937_64& rng) const {
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), uniform01(rng)) - cdf_.begin());
    const std::uint64_t page = perm_[std::min(rank, perm_.size() - 1)];
    return page * page_ + rng() % (page_ - kRangeBytes + 1);
  }

 private:
  std::uint64_t page_;
  std::vector<std::uint64_t> perm_;
  std::vector<double> cdf_;
};

/// What one client connection saw. Owned by its thread until joined.
struct ClientLog {
  std::vector<double> latency_s;  // open loop, from each request's due time
  std::vector<double> lag_s;      // open loop
  std::vector<double> done_s;     // closed loop: completion times from its start
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::string mismatch;  // first wrong body, empty when every byte matched
  std::string error;     // first failure
};

/// One ranged GET on `client` (reconnecting if the server closed it).
/// True for a 206 whose body equals the plaintext.
bool fetch(std::unique_ptr<net::HttpClient>& client, std::uint16_t port,
           std::uint64_t off, const Bytes& plain, ClientLog& log) {
  ++log.attempted;
  const std::string range = "Range: bytes=" + std::to_string(off) + "-" +
                            std::to_string(off + kRangeBytes - 1);
  net::HttpResponse resp;
  std::string failure;
  try {
    gompresso::obs::TraceSpan span("get", "bench");
    if (!client || !client->alive()) client = std::make_unique<net::HttpClient>(port);
    if (!client->get("/archive", {range}, resp)) failure = "connection closed";
  } catch (const std::exception& e) {
    failure = e.what();
    client.reset();
  }
  if (failure.empty() && resp.status != 206) failure = "status " + std::to_string(resp.status);
  if (!failure.empty()) {
    ++log.failed;
    if (log.error.empty()) log.error = failure;
    return false;
  }
  if (resp.body.size() != kRangeBytes ||
      std::memcmp(resp.body.data(), plain.data() + off, kRangeBytes) != 0) {
    if (log.mismatch.empty()) log.mismatch = "206 body differs at offset " + std::to_string(off);
    ++log.failed;
    return false;
  }
  ++log.ok;
  return true;
}

void wait_until(Clock::time_point due) {
  std::this_thread::sleep_until(due - std::chrono::microseconds(200));
  while (Clock::now() < due) {
  }
}

using Clients = std::vector<std::unique_ptr<net::HttpClient>>;

std::vector<ClientLog> open_loop(std::uint16_t port, Clients& clients,
                                 const std::vector<std::uint64_t>& offsets,
                                 const Bytes& plain) {
  const std::size_t conns = clients.size();
  std::vector<ClientLog> logs(conns);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[c];
      Clock::time_point free_at = start;
      for (std::size_t i = c; i < offsets.size(); i += conns) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(double(i) / kRate));
        wait_until(due);
        log.lag_s.push_back(seconds_between(std::max(due, free_at), Clock::now()));
        const bool ok = fetch(clients[c], port, offsets[i], plain, log);
        free_at = Clock::now();
        log.latency_s.push_back(ok ? seconds_between(due, free_at) : kFailedLatencyS);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return logs;
}

std::vector<ClientLog> closed_loop(std::uint16_t port, Clients& clients,
                                   const OffsetGen& gen, std::uint64_t seed,
                                   double seconds, const Bytes& plain) {
  std::vector<ClientLog> logs(clients.size());
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + c + 1);
      while (Clock::now() < end) {
        if (fetch(clients[c], port, gen.next(rng), plain, logs[c]))
          logs[c].done_s.push_back(seconds_between(start, Clock::now()));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return logs;
}

/// Folds client logs into the report's counts; returns the merged log.
ClientLog merge(const std::vector<ClientLog>& logs, Report& r) {
  ClientLog all;
  for (const ClientLog& l : logs) {
    all.latency_s.insert(all.latency_s.end(), l.latency_s.begin(), l.latency_s.end());
    all.lag_s.insert(all.lag_s.end(), l.lag_s.begin(), l.lag_s.end());
    all.done_s.insert(all.done_s.end(), l.done_s.begin(), l.done_s.end());
    all.attempted += l.attempted;
    all.ok += l.ok;
    all.failed += l.failed;
    if (!l.mismatch.empty()) r.mismatch(l.mismatch);
    if (!l.error.empty()) r.notes.push_back("request failed: " + l.error);
  }
  r.attempted += all.attempted;
  r.failed += all.failed;
  return all;
}

/// Median completions per 1 s slice of the closed loop (the whole loop
/// when it is shorter): a host stall then moves one slice, not the rate.
double median_rate(const std::vector<double>& done_s, double wall) {
  const auto slices = static_cast<std::size_t>(wall);
  if (slices == 0) return static_cast<double>(done_s.size()) / wall;
  std::vector<double> counts(slices, 0);
  for (const double t : done_s) {
    if (t < static_cast<double>(slices)) counts[static_cast<std::size_t>(t)] += 1;
  }
  return median(counts);
}

std::vector<std::uint64_t> offsets_for(const OffsetGen& gen, std::uint64_t seed,
                                       std::size_t n) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> out(n);
  for (std::uint64_t& o : out) o = gen.next(rng);
  return out;
}

}  // namespace

void run_range_serve(const Config& cfg, const Inputs& in, Report& r) {
  const std::uint64_t size = in.plain.size();
  if (size < kRangeBytes) throw gompresso::Error("range_serve: input below one 64 KiB range");
  const OffsetGen gen(size, cfg.seed);
  const double open_s = cfg.seconds * kOpenShare;
  const double closed_s = cfg.seconds - open_s;

  const net::SourceFactory factory = [path = in.gmpz_path] {
    return gompresso::serve::open_file_source(path);
  };
  net::ServeOptions sopt;
  sopt.port = 0;
  sopt.decode_threads = cfg.threads;

  std::vector<double> setup_s;
  std::unique_ptr<net::Server> server;
  for (int i = 0; i < kSetups; ++i) {
    server.reset();  // drains and joins the previous instance
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<net::Server>(factory, sopt);
    server->start();
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const std::uint16_t port = server->port();
  Clients clients(std::min(kMaxConns, cfg.threads));

  // Warm-up: connections, per-connection sessions and caches. Only its
  // byte checks count.
  for (const ClientLog& l :
       open_loop(port, clients,
                 offsets_for(gen, cfg.seed ^ 0x5741524Dull,
                             static_cast<std::size_t>(cfg.warmup * kRate)),
                 in.plain)) {
    if (!l.mismatch.empty()) r.mismatch(l.mismatch);
  }

  const std::vector<std::uint64_t> offsets =
      offsets_for(gen, cfg.seed, static_cast<std::size_t>(open_s * kRate));
  const net::ServerStats stats_before = server->stats();
  gompresso::obs::MetricsSnapshot before = gompresso::metrics_snapshot();
  TraceWindow tw(cfg);
  const Clock::time_point open_start = Clock::now();
  const ClientLog open = merge(open_loop(port, clients, offsets, in.plain), r);
  const double open_wall = seconds_between(open_start, Clock::now());
  r.traced_s = tw.stop();
  const RegistryDelta delta(std::move(before), gompresso::metrics_snapshot());

  const Clock::time_point closed_start = Clock::now();
  const ClientLog closed =
      merge(closed_loop(port, clients, gen, cfg.seed, closed_s, in.plain), r);
  const double closed_wall = seconds_between(closed_start, Clock::now());
  const net::ServerStats stats_after = server->stats();
  server->stop();

  const double rps = median_rate(closed.done_s, closed_wall);
  const double lag_p99_ms = percentile(open.lag_s, 99) * 1e3;
  const double p99_ms = percentile(open.latency_s, 99) * 1e3;
  r.e2e("setup_s", median(setup_s), "s",
        "Server()+start(), n=" + std::to_string(setup_s.size()));
  char note[96];
  std::snprintf(note, sizeof note, "closed loop, %zu conns, median %.0f req/s per second",
                clients.size(), rps);
  r.e2e("throughput_MBps", rps * kRangeBytes / kMB, "MB/s", note);
  add_latency_metrics(open.latency_s, r);
  r.e2e("comp_ratio",
        static_cast<double>(std::filesystem::file_size(in.gmpz_path)) /
            static_cast<double>(size),
        "ratio");
  if (p99_ms > kP99LimitMs) r.notes.push_back("p99 above the 10 ms limit at 200 req/s");
  if (lag_p99_ms > kLagLimitMs) {
    r.valid = false;
    r.notes.push_back("INVALID: generator lag p99 " + std::to_string(lag_p99_ms) +
                      " ms > 1 ms");
  }

  double mean_block = 0;
  {
    gompresso::OpenOptions probe_opt;
    probe_opt.session.num_threads = 1;
    mean_block = mean_block_bytes(*gompresso::open(in.gmpz_path, probe_opt));
  }
  const Window w{delta, open_wall, static_cast<double>(open.attempted),
                 static_cast<double>(open.ok * kRangeBytes), mean_block, cfg.threads};
  add_layer_metrics(w, r);
  r.layer("net.shed_503",
          static_cast<double>(stats_after.shed_503 - stats_before.shed_503), "count");
  r.layer("net.peak_queued_MB", static_cast<double>(stats_after.peak_queued_bytes) / kMB,
          "MB");
  r.layer("client.sched_lag_p99_ms", lag_p99_ms, "ms");
}

}  // namespace gomp_bench
