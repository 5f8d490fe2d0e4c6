#include "net/server.hpp"

#include <poll.h>

#include <algorithm>
#include <utility>

#include "core/open.hpp"
#include "obs/metrics.hpp"

namespace gompresso::net {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(b - a).count();
}

std::uint64_t us_between(Clock::time_point a, Clock::time_point b) {
  const auto d = std::chrono::duration_cast<std::chrono::microseconds>(b - a);
  return d.count() < 0 ? 0 : static_cast<std::uint64_t>(d.count());
}

/// Process-wide net.* metrics, one registration for all servers (tests
/// run several; per-server assertions use ServerStats instead).
struct NetObs {
  obs::Counter accepted = obs::registry().counter("net.accepted", "conns");
  obs::Counter requests = obs::registry().counter("net.requests", "requests");
  obs::Counter responses_2xx =
      obs::registry().counter("net.responses_2xx", "responses");
  obs::Counter client_4xx =
      obs::registry().counter("net.client_4xx", "responses");
  obs::Counter shed_503 = obs::registry().counter("net.shed_503", "responses");
  obs::Counter failed_502 =
      obs::registry().counter("net.failed_502", "responses");
  obs::Counter degraded_responses =
      obs::registry().counter("net.degraded_responses", "responses");
  obs::Counter reaped = obs::registry().counter("net.reaped", "conns");
  obs::Counter bytes_sent = obs::registry().counter("net.bytes_sent", "bytes");
  obs::Gauge live_connections =
      obs::registry().gauge("net.live_connections", "conns");
  obs::Gauge queued_bytes = obs::registry().gauge("net.queued_bytes", "bytes");
  obs::Histogram queue_wait_us =
      obs::registry().histogram("net.queue_wait_us", "us");
  obs::Histogram request_us = obs::registry().histogram("net.request_us", "us");
  obs::Histogram response_bytes =
      obs::registry().histogram("net.response_bytes", "bytes");
};

NetObs& net_obs() {
  static NetObs instance;
  return instance;
}

/// The poll-tick period: the granularity of timeout reaping and the
/// worst added latency for a wake that raced the poll() entry (the wake
/// pipe makes the common case immediate).
constexpr int kPollTickMs = 50;

constexpr char kContentTypeBin[] = "Content-Type: application/octet-stream";
constexpr char kAcceptRanges[] = "Accept-Ranges: bytes";

/// The server's one session: on its decode and buffer pools, with a
/// cache sized for every worker, and retries bounded by the request
/// deadline. A null backend is sniffed from the same source, through
/// the front door gompresso::open() (a gzip index builds on the pool).
std::unique_ptr<serve::DecodeSession> open_shared_session(
    const SourceFactory& factory,
    std::shared_ptr<serve::ContainerBackend> backend, const ServeOptions& options,
    ThreadPool& pool, util::BufferPool& buffers) {
  check(factory != nullptr, "net: serve needs a source factory");
  std::unique_ptr<serve::ByteSource> source = factory();
  check(source != nullptr, "net: source factory returned null");
  OpenOptions oopt;
  oopt.session = options.session;
  oopt.session.pool = &pool;
  oopt.session.buffer_pool = &buffers;
  oopt.session.cache_blocks = options.session.cache_blocks * options.worker_threads;
  if (oopt.session.retry.deadline_us == 0 && options.request_deadline_ms > 0) {
    oopt.session.retry.deadline_us =
        static_cast<std::uint64_t>(options.request_deadline_ms) * 1000;
  }
  if (backend == nullptr) return gompresso::open(std::move(source), oopt);
  return std::make_unique<serve::DecodeSession>(std::move(source), std::move(backend),
                                                oopt.session);
}

}  // namespace

Server::Server(SourceFactory factory,
               std::shared_ptr<serve::ContainerBackend> backend,
               ServeOptions options)
    : options_(options),
      decode_pool_(options.decode_threads),
      session_(open_shared_session(factory, std::move(backend), options,
                                   decode_pool_, buffers_)),
      queue_(std::max<std::size_t>(options.pending_requests, 1)) {
  obs::ensure_initialized();
  check(options_.worker_threads > 0, "net: serve needs at least one worker");
  check(options_.max_connections > 0, "net: max_connections must be positive");
}

Server::Server(SourceFactory factory, ServeOptions options)
    : Server(std::move(factory), nullptr, options) {}

Server::~Server() { stop(); }

void Server::start() {
  check(!started_.exchange(true), "net: server already started");
  listener_ = std::make_unique<util::TcpListener>(options_.port);
  port_ = listener_->port();
  poller_ = std::thread([this] { poller_loop(); });
  workers_.reserve(options_.worker_threads);
  for (std::size_t i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void Server::stop() {
  util::MutexLock lock(stop_mutex_);
  if (!started_.load(std::memory_order_relaxed)) return;
  // Phase 1: stop admitting. The poller closes the listener on its next
  // tick; dispatch() starts shedding immediately.
  draining_.store(true, std::memory_order_relaxed);
  wake_.wake();
  // Phase 2: let the workers drain every queued request (close() keeps
  // queued items poppable), then exit.
  queue_.close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  // Phase 3: the poller absorbs the workers' returned connections,
  // closes everything, and exits.
  stop_poller_.store(true, std::memory_order_relaxed);
  wake_.wake();
  if (poller_.joinable()) poller_.join();
}

ServerStats Server::stats() const {
  ServerStats out;
  const auto load = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  out.accepted = load(stats_.accepted);
  out.shed_connections = load(stats_.shed_connections);
  out.requests = load(stats_.requests);
  out.ok_200 = load(stats_.ok_200);
  out.partial_206 = load(stats_.partial_206);
  out.client_4xx = load(stats_.client_4xx);
  out.shed_503 = load(stats_.shed_503);
  out.failed_502 = load(stats_.failed_502);
  out.error_500 = load(stats_.error_500);
  out.degraded_responses = load(stats_.degraded_responses);
  out.reaped_slow = load(stats_.reaped_slow);
  out.reaped_idle = load(stats_.reaped_idle);
  out.bytes_sent = load(stats_.bytes_sent);
  out.peak_queued_bytes = load(stats_.peak_queued_bytes);
  return out;
}

// ---------------------------------------------------------------------
// Admission accounting.

bool Server::admit_bytes(std::uint64_t n) {
  if (n == 0) return true;
  const std::uint64_t prev =
      queued_bytes_.fetch_add(n, std::memory_order_relaxed);
  if (prev + n > options_.queued_bytes_budget) {
    queued_bytes_.fetch_sub(n, std::memory_order_relaxed);
    return false;
  }
  const std::uint64_t cur = prev + n;
  std::uint64_t peak = stats_.peak_queued_bytes.load(std::memory_order_relaxed);
  while (cur > peak && !stats_.peak_queued_bytes.compare_exchange_weak(
                           peak, cur, std::memory_order_relaxed)) {
  }
  net_obs().queued_bytes.set(static_cast<std::int64_t>(cur));
  return true;
}

void Server::release_bytes(std::uint64_t n) {
  if (n == 0) return;
  const std::uint64_t prev =
      queued_bytes_.fetch_sub(n, std::memory_order_relaxed);
  net_obs().queued_bytes.set(static_cast<std::int64_t>(prev - n));
}

void Server::shed_response(Conn& conn, int status, const char* reason,
                           bool keep) {
  std::string body(status_text(status));
  body += '\n';
  const std::string head = response_head(
      status, body.size(), keep,
      {std::string("X-Gomp-Shed: ") + reason});
  util::send_best_effort(conn.fd.get(), as_bytes(head));
  util::send_best_effort(conn.fd.get(), as_bytes(body));
}

// ---------------------------------------------------------------------
// Poller: accept, readiness, head accumulation, timeout reaping.

void Server::poller_loop() {
  std::vector<struct pollfd> pfds;
  std::vector<std::unique_ptr<Conn>> grabbed;

  const auto drop = [this](std::unique_ptr<Conn> conn) {
    live_conns_.fetch_sub(1, std::memory_order_relaxed);
    net_obs().live_connections.add(-1);
    conn.reset();  // closes the fd
  };

  while (!stop_poller_.load(std::memory_order_relaxed)) {
    const bool draining = draining_.load(std::memory_order_relaxed);
    if (draining && listener_ != nullptr && listener_->listening()) {
      listener_->close();
    }

    // -- wait for readiness anywhere --------------------------------
    pfds.clear();
    pfds.push_back({wake_.rd.get(), POLLIN, 0});
    const bool listening = listener_ != nullptr && listener_->listening();
    if (listening) pfds.push_back({listener_->fd(), POLLIN, 0});
    const std::size_t conn_base = pfds.size();
    for (const std::unique_ptr<Conn>& c : idle_) {
      pfds.push_back({c->fd.get(), POLLIN, 0});
    }
    ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), kPollTickMs);
    wake_.drain();

    // -- absorb connections the workers handed back -----------------
    grabbed.clear();
    {
      util::MutexLock lock(return_mutex_);
      grabbed.swap(returned_);
    }
    for (std::unique_ptr<Conn>& c : grabbed) {
      if (c->close_after || !c->fd.valid() ||
          draining_.load(std::memory_order_relaxed)) {
        drop(std::move(c));
        continue;
      }
      c->last_activity = Clock::now();
      idle_.push_back(std::move(c));
    }

    // -- accept new connections -------------------------------------
    if (listening) {
      while (true) {
        util::Fd fd = listener_->accept(0);
        if (!fd.valid()) break;
        stats_.accepted.fetch_add(1, std::memory_order_relaxed);
        net_obs().accepted.inc();
        if (draining_.load(std::memory_order_relaxed) ||
            live_conns_.load(std::memory_order_relaxed) >=
                options_.max_connections) {
          // Shed at the door: a bounded daemon refuses work it cannot
          // queue, it does not park it in kernel buffers.
          auto doomed = std::make_unique<Conn>();
          doomed->fd = std::move(fd);
          shed_response(*doomed, 503, "connections");
          stats_.shed_connections.fetch_add(1, std::memory_order_relaxed);
          net_obs().shed_503.inc();
          continue;
        }
        auto conn = std::make_unique<Conn>();
        conn->fd = std::move(fd);
        conn->last_activity = Clock::now();
        live_conns_.fetch_add(1, std::memory_order_relaxed);
        net_obs().live_connections.add(1);
        idle_.push_back(std::move(conn));
      }
    }

    // -- read readable idle connections, dispatch complete heads ----
    // idle_ entries whose pollfd did not exist this tick (just added by
    // the returned/accept passes above) are simply skipped until the
    // next tick's poll covers them.
    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < idle_.size(); ++i) {
      std::unique_ptr<Conn>& c = idle_[i];
      const std::size_t pf = conn_base + i;
      const bool ready =
          pf < pfds.size() && pfds[pf].fd == c->fd.get() &&
          (pfds[pf].revents & (POLLIN | POLLHUP | POLLERR)) != 0;
      if ((pf < pfds.size() && pfds[pf].revents != 0) || !c->inbuf.empty())
      if (ready) {
        bool dead = false;
        std::uint8_t chunk[4096];
        while (true) {
          std::ptrdiff_t n = 0;
          try {
            n = util::recv_some(c->fd.get(),
                                MutableByteSpan(chunk, sizeof chunk));
          } catch (const IoError&) {
            dead = true;  // reset by peer
            break;
          }
          if (n < 0) break;  // drained
          if (n == 0) {      // clean close
            dead = true;
            break;
          }
          c->inbuf.append(reinterpret_cast<const char*>(chunk),
                          static_cast<std::size_t>(n));
          c->last_activity = now;
          if (c->inbuf.size() > kMaxRequestHeadBytes &&
              find_head_end(c->inbuf) == std::string::npos) {
            shed_response(*c, 431, "head");
            stats_.client_4xx.fetch_add(1, std::memory_order_relaxed);
            net_obs().client_4xx.inc();
            dead = true;
            break;
          }
        }
        if (dead) {
          drop(std::move(c));
          c = nullptr;
          continue;
        }
      }

      // Dispatch every complete head already buffered — not only when
      // new bytes arrived this tick: a shed-but-kept connection may
      // still hold pipelined heads that would otherwise sit until the
      // client sends more. dispatch() returns the connection on a
      // kept shed (by value — pushing into idle_ mid-scan would
      // invalidate this iteration), nullptr when it was consumed.
      while (c != nullptr) {
        const std::size_t head_end = find_head_end(c->inbuf);
        if (head_end == std::string::npos) break;
        std::string head = c->inbuf.substr(0, head_end);
        c->inbuf.erase(0, head_end);
        c = dispatch(std::move(c), std::move(head));
      }
      if (c == nullptr) continue;

      // -- timeout reaping ------------------------------------------
      const int budget =
          c->inbuf.empty() ? options_.idle_timeout_ms : options_.header_timeout_ms;
      if (ms_between(c->last_activity, now) > budget) {
        if (!c->inbuf.empty()) shed_response(*c, 408, "header-timeout");
        stats_.reaped_idle.fetch_add(1, std::memory_order_relaxed);
        net_obs().reaped.inc();
        drop(std::move(c));
        c = nullptr;
      }
    }
    idle_.erase(std::remove(idle_.begin(), idle_.end(), nullptr), idle_.end());
  }

  // Shutdown: everything still here is shed by close. Workers have
  // already been joined, so returned_ cannot grow after this drain.
  {
    util::MutexLock lock(return_mutex_);
    for (std::unique_ptr<Conn>& c : returned_) idle_.push_back(std::move(c));
    returned_.clear();
  }
  for (std::unique_ptr<Conn>& c : idle_) drop(std::move(c));
  idle_.clear();
  if (listener_ != nullptr) listener_->close();
}

std::unique_ptr<Server::Conn> Server::dispatch(std::unique_ptr<Conn> conn,
                                               std::string head) {
  // Single-producer pre-check makes the shed path race-free: only the
  // poller pushes, so a non-full queue here cannot be full below
  // (consumers only shrink it). A close() racing in is caught by
  // try_push returning false.
  const bool full = queue_.size() >= queue_.capacity();
  if (draining_.load(std::memory_order_relaxed) || full) {
    const bool drain = draining();
    shed_response(*conn, 503, drain ? "draining" : "queue", /*keep=*/!drain);
    stats_.shed_503.fetch_add(1, std::memory_order_relaxed);
    net_obs().shed_503.inc();
    if (!drain) {
      // Queue-full is a per-request condition: hand the socket back so
      // the client's retry skips the reconnect (and its accept latency).
      conn->last_activity = Clock::now();
      return conn;
    }
    live_conns_.fetch_sub(1, std::memory_order_relaxed);
    net_obs().live_connections.add(-1);
    return nullptr;
  }
  Job job;
  job.conn = std::move(conn);
  job.head = std::move(head);
  job.enqueued = Clock::now();
  if (!queue_.try_push(std::move(job))) {
    // close() won the race; the connection (moved into the dropped job)
    // is already gone — the client sees a close, which drain allows.
    stats_.shed_503.fetch_add(1, std::memory_order_relaxed);
    net_obs().shed_503.inc();
    live_conns_.fetch_sub(1, std::memory_order_relaxed);
    net_obs().live_connections.add(-1);
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// Workers.

void Server::return_to_poller(std::unique_ptr<Conn> conn) {
  {
    util::MutexLock lock(return_mutex_);
    returned_.push_back(std::move(conn));
  }
  wake_.wake();
}

void Server::worker_loop() {
  Job job;
  while (queue_.pop(job)) {
    std::unique_ptr<Conn> conn = std::move(job.conn);
    std::string head = std::move(job.head);
    Clock::time_point enqueued = job.enqueued;
    bool keep = true;
    while (true) {
      try {
        keep = serve_request(*conn, head, enqueued);
      } catch (...) {
        // Last-resort containment (e.g. bad_alloc building a body): the
        // connection dies, the worker does not.
        shed_response(*conn, 500, "internal");
        stats_.error_500.fetch_add(1, std::memory_order_relaxed);
        keep = false;
      }
      if (!keep || draining_.load(std::memory_order_relaxed)) break;
      // Serve a pipelined follow-up directly instead of bouncing the
      // connection through the poller.
      const std::size_t head_end = find_head_end(conn->inbuf);
      if (head_end == std::string::npos) break;
      head = conn->inbuf.substr(0, head_end);
      conn->inbuf.erase(0, head_end);
      enqueued = Clock::now();
    }
    conn->close_after = !keep;
    return_to_poller(std::move(conn));
  }
}

bool Server::serve_request(Conn& conn, const std::string& head,
                           Clock::time_point enqueued) {
  NetObs& obs = net_obs();
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  obs.requests.inc();
  const Clock::time_point started = Clock::now();
  obs.queue_wait_us.record(us_between(enqueued, started));

  // Worker-side responses go through send_all (bounded by the write
  // timeout); a failed/timed-out write reaps the connection.
  // content_length and the body differ only for HEAD (length, no body).
  const auto send = [&](int status, std::uint64_t content_length,
                        const std::string& body, bool keep,
                        const std::vector<std::string>& extra) -> bool {
    const std::string rhead = response_head(status, content_length, keep, extra);
    try {
      util::send_all(conn.fd.get(), as_bytes(rhead), options_.write_timeout_ms);
      if (!body.empty()) {
        util::send_all(conn.fd.get(), as_bytes(body), options_.write_timeout_ms);
      }
    } catch (const IoError&) {
      stats_.reaped_slow.fetch_add(1, std::memory_order_relaxed);
      obs.reaped.inc();
      return false;
    }
    stats_.bytes_sent.fetch_add(body.size(), std::memory_order_relaxed);
    obs.bytes_sent.add(body.size());
    return keep;
  };
  const auto send_text = [&](int status, const std::string& body, bool keep,
                             const std::vector<std::string>& extra = {}) -> bool {
    return send(status, body.size(), body, keep, extra);
  };
  // Per-request sheds keep the connection (unless the client asked to
  // close): the client's retry must not pay a reconnect, and a daemon
  // under overload must not manufacture a SYN storm for itself.
  const auto shed = [&](const char* reason, bool keep_conn) -> bool {
    stats_.shed_503.fetch_add(1, std::memory_order_relaxed);
    obs.shed_503.inc();
    return send_text(503, "Service Unavailable\n", keep_conn,
                     {std::string("X-Gomp-Shed: ") + reason});
  };
  const auto client_error = [&](int status, std::string body, bool keep,
                                std::vector<std::string> extra = {}) -> bool {
    stats_.client_4xx.fetch_add(1, std::memory_order_relaxed);
    obs.client_4xx.inc();
    return send_text(status, std::move(body), keep, std::move(extra));
  };

  HttpRequest req;
  if (!parse_request_head(head, req)) {
    return client_error(400, "Bad Request\n", /*keep=*/false);
  }
  const bool keep = !req.wants_close();

  // Deadline: a request that aged out in the queue is shed before any
  // decode work is spent on it.
  if (options_.request_deadline_ms > 0 &&
      ms_between(enqueued, started) > options_.request_deadline_ms) {
    return shed("deadline", keep);
  }

  const bool is_head = req.method == "HEAD";
  if (req.method != "GET" && !is_head) {
    return client_error(405, "Method Not Allowed\n", keep,
                        {"Allow: GET, HEAD"});
  }

  if (req.target == "/healthz") {
    const bool draining = draining_.load(std::memory_order_relaxed);
    return send_text(draining ? 503 : 200, draining ? "draining\n" : "ok\n",
                     keep);
  }
  if (req.target == "/metrics") {
    return send_text(200, obs::metrics_snapshot().to_json(), keep,
                     {"Content-Type: application/json"});
  }
  if (req.target != "/" && req.target != "/archive") {
    return client_error(404, "Not Found\n", keep);
  }

  // -- the archive resource -----------------------------------------
  const std::uint64_t total = session_->size();
  int status = 200;
  std::uint64_t first = 0;
  std::uint64_t last = total == 0 ? 0 : total - 1;
  if (const std::string* range = req.header("range")) {
    switch (parse_range(*range, total, first, last)) {
      case RangeStatus::kNone:
        break;
      case RangeStatus::kSingle:
        status = 206;
        break;
      case RangeStatus::kUnsatisfiable:
        return client_error(
            416, "Range Not Satisfiable\n", keep,
            {"Content-Range: bytes */" + std::to_string(total)});
    }
  }
  const std::uint64_t length = total == 0 ? 0 : last - first + 1;
  std::vector<std::string> extra{kContentTypeBin, kAcceptRanges};
  if (status == 206) {
    extra.push_back("Content-Range: bytes " + std::to_string(first) + "-" +
                    std::to_string(last) + "/" + std::to_string(total));
  }

  if (is_head) {
    // HEAD answers from geometry alone — no decode, no byte admission.
    const bool sent = send(status, length, std::string(), keep, extra);
    bump_2xx(status);
    return sent;
  }

  if (length > options_.max_response_bytes) return shed("response-size", keep);
  if (!admit_bytes(length)) return shed("queued-bytes", keep);
  struct Release {
    Server* s;
    std::uint64_t n;
    ~Release() { s->release_bytes(n); }
  } release{this, length};

  std::string body;
  std::uint64_t degraded_bytes = 0;
  if (length > 0) {
    body.resize(static_cast<std::size_t>(length));
    MutableByteSpan dst(reinterpret_cast<std::uint8_t*>(body.data()),
                        body.size());
    try {
      std::size_t got = 0;
      if (options_.degraded) {
        serve::DamageReport report;
        got = session_->read_at_damage_tolerant(first, dst, &report);
        degraded_bytes = report.damaged_bytes();
      } else {
        got = session_->read_at(first, dst);
      }
      // last < total, so a short read here is an index/source
      // inconsistency, not EOF.
      check(got == body.size(), "net: short read inside the archive");
    } catch (const Error& e) {
      if (e.kind() == ErrorKind::kConfig) {
        stats_.error_500.fetch_add(1, std::memory_order_relaxed);
        return send_text(500, std::string(e.what()) + "\n", /*keep=*/false);
      }
      // Damaged or unreadable blocks: the range cannot be served
      // faithfully and degraded mode is off — a gateway-style 502
      // (the archive behind the daemon failed, not the daemon).
      stats_.failed_502.fetch_add(1, std::memory_order_relaxed);
      obs.failed_502.inc();
      return send_text(502, std::string(e.what()) + "\n", keep);
    }
  }
  if (degraded_bytes > 0) {
    extra.push_back("X-Gomp-Degraded: " + std::to_string(degraded_bytes));
    stats_.degraded_responses.fetch_add(1, std::memory_order_relaxed);
    obs.degraded_responses.inc();
  }

  const bool sent = send(status, body.size(), body, keep, extra);
  bump_2xx(status);
  obs.response_bytes.record(length);
  obs.request_us.record(us_between(started, Clock::now()));
  return sent;
}

void Server::bump_2xx(int status) {
  if (status == 206) {
    stats_.partial_206.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.ok_200.fetch_add(1, std::memory_order_relaxed);
  }
  net_obs().responses_2xx.inc();
}

}  // namespace gompresso::net
