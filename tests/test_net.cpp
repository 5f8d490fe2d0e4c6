// Tests for the network serve plane: the HTTP/1.1 request/range parser,
// response framing, and the Server daemon itself — byte-exact range
// responses, the 4xx/5xx taxonomy, admission-control sheds, keep-alive,
// idle reaping, degraded service over damaged archives, and graceful
// drain. Everything runs on 127.0.0.1 with ephemeral ports, so the
// suite is parallel-safe.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/gompresso.hpp"
#include "datagen/datasets.hpp"
#include "net/http.hpp"
#include "net/server.hpp"
#include "serve/fault_source.hpp"
#include "util/socket.hpp"

namespace gompresso {
namespace {

// Sends raw bytes to the daemon and drains the socket to EOF — for the
// request shapes HttpClient deliberately cannot produce (HEAD, bad
// methods, garbage).
std::string raw_request(std::uint16_t port, const std::string& req) {
  util::Fd fd = util::connect_loopback(port, 2000);
  util::send_all(fd.get(), as_bytes(req), 2000);
  std::string got;
  std::uint8_t chunk[4096];
  while (true) {
    if (!util::wait_readable(fd.get(), 2000)) break;
    const std::ptrdiff_t n =
        util::recv_some(fd.get(), MutableByteSpan(chunk, sizeof chunk));
    if (n == 0) break;
    if (n > 0) got.append(reinterpret_cast<const char*>(chunk),
                          static_cast<std::size_t>(n));
  }
  return got;
}

// ---------------------------------------------------------------------------
// Request-head parsing

TEST(Http, ParsesRequestHeadAndNormalizesHeaderNames) {
  net::HttpRequest req;
  ASSERT_TRUE(net::parse_request_head(
      "GET /archive HTTP/1.1\r\nHost: x\r\nRange:  bytes=0-9 \r\n\r\n", req));
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/archive");
  EXPECT_EQ(req.version, "HTTP/1.1");
  ASSERT_NE(req.header("range"), nullptr);
  EXPECT_EQ(*req.header("range"), "bytes=0-9");
  EXPECT_EQ(req.header("missing"), nullptr);
  EXPECT_FALSE(req.wants_close());
}

TEST(Http, RejectsMalformedHeads) {
  net::HttpRequest req;
  EXPECT_FALSE(net::parse_request_head("GET\r\n\r\n", req));
  EXPECT_FALSE(net::parse_request_head("GET /x\r\n\r\n", req));
  EXPECT_FALSE(net::parse_request_head("GET /x SPDY/1\r\n\r\n", req));
  EXPECT_FALSE(net::parse_request_head(
      "GET /x HTTP/1.1\r\nno-colon-line\r\n\r\n", req));
  EXPECT_FALSE(net::parse_request_head(
      "GET /x HTTP/1.1\r\n: empty-name\r\n\r\n", req));
}

TEST(Http, ConnectionSemanticsFollowVersionAndHeader) {
  net::HttpRequest req;
  ASSERT_TRUE(net::parse_request_head("GET / HTTP/1.0\r\n\r\n", req));
  EXPECT_TRUE(req.wants_close());  // 1.0 defaults to close
  ASSERT_TRUE(net::parse_request_head(
      "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", req));
  EXPECT_FALSE(req.wants_close());
  ASSERT_TRUE(net::parse_request_head(
      "GET / HTTP/1.1\r\nConnection: close\r\n\r\n", req));
  EXPECT_TRUE(req.wants_close());
}

TEST(Http, FindHeadEndHandlesPartialBuffers) {
  EXPECT_EQ(net::find_head_end("GET / HTTP/1.1\r\nHost: x"), std::string::npos);
  EXPECT_EQ(net::find_head_end("GET / HTTP/1.1\r\n\r\nBODY"), 18u);
}

// ---------------------------------------------------------------------------
// Range parsing (RFC 7233 single ranges)

TEST(Http, ParsesTheThreeSingleRangeForms) {
  std::uint64_t first = 0, last = 0;
  EXPECT_EQ(net::parse_range("bytes=10-19", 100, first, last),
            net::RangeStatus::kSingle);
  EXPECT_EQ(first, 10u);
  EXPECT_EQ(last, 19u);
  EXPECT_EQ(net::parse_range("bytes=90-", 100, first, last),
            net::RangeStatus::kSingle);
  EXPECT_EQ(first, 90u);
  EXPECT_EQ(last, 99u);
  EXPECT_EQ(net::parse_range("bytes=-10", 100, first, last),
            net::RangeStatus::kSingle);
  EXPECT_EQ(first, 90u);
  EXPECT_EQ(last, 99u);
  // Last clamps to the resource end.
  EXPECT_EQ(net::parse_range("bytes=50-1000", 100, first, last),
            net::RangeStatus::kSingle);
  EXPECT_EQ(last, 99u);
  // A suffix longer than the resource is the whole resource.
  EXPECT_EQ(net::parse_range("bytes=-500", 100, first, last),
            net::RangeStatus::kSingle);
  EXPECT_EQ(first, 0u);
}

TEST(Http, IgnoresMalformedAndMultiRanges) {
  std::uint64_t first = 0, last = 0;
  EXPECT_EQ(net::parse_range("items=0-9", 100, first, last),
            net::RangeStatus::kNone);
  EXPECT_EQ(net::parse_range("bytes=0-9,20-29", 100, first, last),
            net::RangeStatus::kNone);
  EXPECT_EQ(net::parse_range("bytes=abc-", 100, first, last),
            net::RangeStatus::kNone);
  EXPECT_EQ(net::parse_range("bytes=-xyz", 100, first, last),
            net::RangeStatus::kNone);
  EXPECT_EQ(net::parse_range("bytes=9-5", 100, first, last),
            net::RangeStatus::kNone);
}

TEST(Http, ReportsUnsatisfiableRanges) {
  std::uint64_t first = 0, last = 0;
  EXPECT_EQ(net::parse_range("bytes=100-", 100, first, last),
            net::RangeStatus::kUnsatisfiable);
  EXPECT_EQ(net::parse_range("bytes=-0", 100, first, last),
            net::RangeStatus::kUnsatisfiable);
  EXPECT_EQ(net::parse_range("bytes=0-9", 0, first, last),
            net::RangeStatus::kUnsatisfiable);
}

// ---------------------------------------------------------------------------
// The daemon

struct ServerFixture {
  Bytes input;
  Bytes file;

  explicit ServerFixture(std::size_t size = 120000) {
    input = datagen::wikipedia(size);
    CompressOptions copt;
    copt.block_size = 16 * 1024;
    file = compress(input, copt);
  }

  net::SourceFactory factory() const {
    return [this] {
      return serve::memory_source(ByteSpan(file.data(), file.size()));
    };
  }

  net::ServeOptions options() const {
    net::ServeOptions opt;
    opt.port = 0;  // ephemeral
    opt.worker_threads = 2;
    opt.decode_threads = 1;  // synchronous decode, deterministic
    return opt;
  }
};

TEST(ServeNet, FullAndRangeResponsesAreByteExact) {
  const ServerFixture f;
  net::Server server(f.factory(), f.options());
  server.start();

  net::HttpClient client(server.port());
  net::HttpResponse resp;
  ASSERT_TRUE(client.get("/archive", {}, resp));
  EXPECT_EQ(resp.status, 200);
  ASSERT_EQ(resp.body.size(), f.input.size());
  EXPECT_TRUE(std::equal(f.input.begin(), f.input.end(),
                         reinterpret_cast<const std::uint8_t*>(resp.body.data())));
  ASSERT_NE(resp.header("accept-ranges"), nullptr);

  // A mid-archive range crossing a block boundary.
  ASSERT_TRUE(client.get("/archive", {"Range: bytes=16000-49999"}, resp));
  EXPECT_EQ(resp.status, 206);
  ASSERT_EQ(resp.body.size(), 34000u);
  EXPECT_TRUE(std::equal(f.input.begin() + 16000, f.input.begin() + 50000,
                         reinterpret_cast<const std::uint8_t*>(resp.body.data())));
  ASSERT_NE(resp.header("content-range"), nullptr);
  EXPECT_EQ(*resp.header("content-range"),
            "bytes 16000-49999/" + std::to_string(f.input.size()));

  // Suffix form.
  ASSERT_TRUE(client.get("/archive", {"Range: bytes=-1000"}, resp));
  EXPECT_EQ(resp.status, 206);
  ASSERT_EQ(resp.body.size(), 1000u);
  EXPECT_TRUE(std::equal(f.input.end() - 1000, f.input.end(),
                         reinterpret_cast<const std::uint8_t*>(resp.body.data())));
  server.stop();
}

TEST(ServeNet, ErrorTaxonomy404And416And405And400) {
  const ServerFixture f;
  net::Server server(f.factory(), f.options());
  server.start();

  net::HttpClient client(server.port());
  net::HttpResponse resp;
  ASSERT_TRUE(client.get("/nope", {}, resp));
  EXPECT_EQ(resp.status, 404);
  ASSERT_TRUE(client.get("/archive",
                         {"Range: bytes=" + std::to_string(f.input.size()) + "-"},
                         resp));
  EXPECT_EQ(resp.status, 416);
  ASSERT_NE(resp.header("content-range"), nullptr);
  EXPECT_EQ(*resp.header("content-range"),
            "bytes */" + std::to_string(f.input.size()));
  // Keep-alive held across both error responses.
  EXPECT_TRUE(client.alive());

  const std::string post = raw_request(
      server.port(),
      "POST /archive HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos);
  EXPECT_NE(post.find("Allow: GET, HEAD"), std::string::npos);
  const std::string garbage = raw_request(server.port(), "not http at all\r\n\r\n");
  EXPECT_NE(garbage.find("HTTP/1.1 400"), std::string::npos);

  const net::ServerStats st = server.stats();
  EXPECT_EQ(st.client_4xx, 4u);
  server.stop();
}

TEST(ServeNet, HealthzAndMetricsRespond) {
  const ServerFixture f;
  net::Server server(f.factory(), f.options());
  server.start();

  net::HttpClient client(server.port());
  net::HttpResponse resp;
  ASSERT_TRUE(client.get("/healthz", {}, resp));
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, "ok\n");
  ASSERT_TRUE(client.get("/metrics", {}, resp));
  EXPECT_EQ(resp.status, 200);
  // A JSON array containing the net.* metrics this very request bumped.
  EXPECT_EQ(resp.body.front(), '[');
  EXPECT_NE(resp.body.find("\"net.requests\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"net.queue_wait_us\""), std::string::npos);
  server.stop();
}

TEST(ServeNet, KeepAliveReusesOneConnection) {
  const ServerFixture f;
  net::Server server(f.factory(), f.options());
  server.start();

  net::HttpClient client(server.port());
  net::HttpResponse resp;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.get("/archive",
                           {"Range: bytes=" + std::to_string(i * 100) + "-" +
                            std::to_string(i * 100 + 99)},
                           resp));
    EXPECT_EQ(resp.status, 206);
    EXPECT_TRUE(client.alive());
  }
  server.stop();
  EXPECT_EQ(server.stats().accepted, 1u);
  EXPECT_EQ(server.stats().partial_206, 5u);
}

TEST(ServeNet, OversizedResponsesAreShedWith503) {
  const ServerFixture f;
  net::ServeOptions opt = f.options();
  opt.max_response_bytes = 1024;  // whole-file GETs must shed
  net::Server server(f.factory(), opt);
  server.start();

  net::HttpClient client(server.port());
  net::HttpResponse resp;
  ASSERT_TRUE(client.get("/archive", {}, resp));
  EXPECT_EQ(resp.status, 503);
  ASSERT_NE(resp.header("x-gomp-shed"), nullptr);
  EXPECT_EQ(*resp.header("x-gomp-shed"), "response-size");

  // Per-request sheds keep the connection: the retry goes over the same
  // socket, and a small range still serves.
  ASSERT_TRUE(client.alive());
  ASSERT_TRUE(client.get("/archive", {"Range: bytes=0-511"}, resp));
  EXPECT_EQ(resp.status, 206);
  server.stop();
  const net::ServerStats st = server.stats();
  EXPECT_GE(st.shed_503, 1u);
  EXPECT_EQ(st.accepted, 1u);  // no reconnect between shed and retry
}

TEST(ServeNet, QueuedBytesBudgetShedsWith503) {
  const ServerFixture f;
  net::ServeOptions opt = f.options();
  opt.queued_bytes_budget = 2048;  // max_response_bytes stays large
  net::Server server(f.factory(), opt);
  server.start();

  net::HttpClient client(server.port());
  net::HttpResponse resp;
  ASSERT_TRUE(client.get("/archive", {"Range: bytes=0-8191"}, resp));
  EXPECT_EQ(resp.status, 503);
  ASSERT_NE(resp.header("x-gomp-shed"), nullptr);
  EXPECT_EQ(*resp.header("x-gomp-shed"), "queued-bytes");
  // The shed kept the socket; the retry under budget serves on it.
  ASSERT_TRUE(client.alive());
  ASSERT_TRUE(client.get("/archive", {"Range: bytes=0-1023"}, resp));
  EXPECT_EQ(resp.status, 206);
  server.stop();
  EXPECT_LE(server.stats().peak_queued_bytes, 2048u);
}

TEST(ServeNet, ConnectionsOverTheCapAreShedAtAccept) {
  const ServerFixture f;
  net::ServeOptions opt = f.options();
  opt.max_connections = 1;
  net::Server server(f.factory(), opt);
  server.start();

  net::HttpClient first(server.port());
  net::HttpResponse resp;
  ASSERT_TRUE(first.get("/healthz", {}, resp));  // ensures it is accepted
  EXPECT_EQ(resp.status, 200);

  net::HttpClient second(server.port());
  ASSERT_TRUE(second.get("/healthz", {}, resp));
  EXPECT_EQ(resp.status, 503);
  EXPECT_FALSE(second.alive());  // sheds close
  // The first connection is unaffected.
  ASSERT_TRUE(first.get("/healthz", {}, resp));
  EXPECT_EQ(resp.status, 200);
  server.stop();
  EXPECT_EQ(server.stats().shed_connections, 1u);
}

TEST(ServeNet, HeadAnswersGeometryWithoutDecoding) {
  const ServerFixture f;
  net::Server server(f.factory(), f.options());
  server.start();

  // HttpClient only speaks GET; drive HEAD over a raw socket.
  const std::string got = raw_request(
      server.port(), "HEAD /archive HTTP/1.1\r\nHost: x\r\n"
                     "Range: bytes=0-999\r\nConnection: close\r\n\r\n");
  EXPECT_NE(got.find("HTTP/1.1 206"), std::string::npos);
  EXPECT_NE(got.find("Content-Length: 1000"), std::string::npos);
  // No body followed the head.
  EXPECT_EQ(got.substr(got.size() - 4), "\r\n\r\n");
  server.stop();
  EXPECT_EQ(server.stats().bytes_sent, 0u);
}

TEST(ServeNet, DamagedBlocksAre502ByDefaultAndDegraded206WhenEnabled) {
  const ServerFixture f;
  // Locate block 1's payload in the compressed file, then hand the
  // server a source that corrupts it. The index is pre-built from the
  // clean bytes, as the daemon does.
  auto clean = serve::memory_source(ByteSpan(f.file.data(), f.file.size()));
  serve::SeekIndex index = serve::SeekIndex::build(*clean);
  ASSERT_GE(index.num_blocks(), 3u);
  const serve::BlockEntry& victim = index.block(1);
  const std::string spec =
      "flip@" + std::to_string(victim.comp_offset + victim.comp_size / 2) +
      "+1:0x40";
  const auto faulty_factory = [&f, spec] {
    return std::unique_ptr<serve::ByteSource>(
        std::make_unique<serve::FaultInjectingByteSource>(
            serve::memory_source(ByteSpan(f.file.data(), f.file.size())),
            serve::FaultPlan::parse(spec)));
  };
  const std::uint64_t block_lo = victim.uncomp_offset;
  const std::uint64_t block_hi = victim.uncomp_offset + victim.uncomp_size - 1;

  {  // Default: faithful service only — damaged range is a 502.
    net::Server server(faulty_factory, serve::make_gmpz_backend(index),
                       f.options());
    server.start();
    net::HttpClient client(server.port());
    net::HttpResponse resp;
    const std::string range = "Range: bytes=" + std::to_string(block_lo) + "-" +
                              std::to_string(block_hi);
    ASSERT_TRUE(client.get("/archive", {range}, resp));
    EXPECT_EQ(resp.status, 502);
    // Undamaged blocks still serve exactly.
    ASSERT_TRUE(client.get("/archive", {"Range: bytes=0-999"}, resp));
    EXPECT_EQ(resp.status, 206);
    EXPECT_TRUE(std::equal(f.input.begin(), f.input.begin() + 1000,
                           reinterpret_cast<const std::uint8_t*>(resp.body.data())));
    server.stop();
    EXPECT_EQ(server.stats().failed_502, 1u);
  }

  {  // Degraded mode: zero-filled 206 with the damage advertised.
    net::ServeOptions opt = f.options();
    opt.degraded = true;
    net::Server server(faulty_factory, serve::make_gmpz_backend(index), opt);
    server.start();
    net::HttpClient client(server.port());
    net::HttpResponse resp;
    const std::string range = "Range: bytes=" + std::to_string(block_lo) + "-" +
                              std::to_string(block_hi);
    ASSERT_TRUE(client.get("/archive", {range}, resp));
    EXPECT_EQ(resp.status, 206);
    ASSERT_NE(resp.header("x-gomp-degraded"), nullptr);
    EXPECT_EQ(*resp.header("x-gomp-degraded"),
              std::to_string(victim.uncomp_size));
    ASSERT_EQ(resp.body.size(), victim.uncomp_size);
    EXPECT_TRUE(std::all_of(resp.body.begin(), resp.body.end(),
                            [](char c) { return c == 0; }));
    server.stop();
    EXPECT_EQ(server.stats().degraded_responses, 1u);
  }
}

TEST(ServeNet, IdleConnectionsAreReaped) {
  const ServerFixture f;
  net::ServeOptions opt = f.options();
  opt.idle_timeout_ms = 100;
  net::Server server(f.factory(), opt);
  server.start();

  net::HttpClient client(server.port());
  net::HttpResponse resp;
  ASSERT_TRUE(client.get("/healthz", {}, resp));
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  // The server closed the idle connection; the next get sees the close.
  EXPECT_FALSE(client.get("/healthz", {}, resp));
  server.stop();
  EXPECT_GE(server.stats().reaped_idle, 1u);
}

TEST(ServeNet, GracefulDrainStopsAcceptingAndJoins) {
  const ServerFixture f;
  net::Server server(f.factory(), f.options());
  server.start();
  const std::uint16_t port = server.port();

  net::HttpClient client(port);
  net::HttpResponse resp;
  ASSERT_TRUE(client.get("/archive", {"Range: bytes=0-999"}, resp));
  EXPECT_EQ(resp.status, 206);

  server.stop();
  EXPECT_TRUE(server.draining());
  // New connects are refused (listener closed) — both outcomes are
  // acceptable manifestations of drain: refused connection or no bytes.
  bool refused = false;
  try {
    net::HttpClient late(port, 500);
    net::HttpResponse r2;
    refused = !late.get("/healthz", {}, r2);
  } catch (const IoError&) {
    refused = true;
  }
  EXPECT_TRUE(refused);
  server.stop();  // idempotent
}

TEST(ServeNet, SharedPoolsBoundMemoryAcrossConnections) {
  // Pooled memory is bounded per server, not per connection: four open
  // connections that each read their own blocks share one cache of
  // cache_blocks x worker_threads decoded blocks.
  const ServerFixture f(400000);
  net::ServeOptions opt = f.options();
  opt.session.cache_blocks = 2;
  net::Server server(f.factory(), opt);
  server.start();

  constexpr std::uint64_t kBlock = 16 * 1024;  // ServerFixture's block size
  std::vector<std::unique_ptr<net::HttpClient>> clients;
  for (int c = 0; c < 4; ++c) {
    clients.push_back(std::make_unique<net::HttpClient>(server.port()));
  }
  for (std::uint64_t i = 0; i < 3; ++i) {
    for (std::uint64_t c = 0; c < clients.size(); ++c) {
      const std::uint64_t off = (c * 3 + i) * kBlock + 100;
      net::HttpResponse resp;
      ASSERT_TRUE(clients[c]->get("/archive",
                                  {"Range: bytes=" + std::to_string(off) + "-" +
                                   std::to_string(off + 4999)},
                                  resp));
      ASSERT_EQ(resp.status, 206);
      EXPECT_TRUE(std::equal(f.input.begin() + static_cast<long>(off),
                             f.input.begin() + static_cast<long>(off + 5000),
                             reinterpret_cast<const std::uint8_t*>(resp.body.data())));
    }
  }
  server.stop();
  const serve::SessionStats st = server.session_stats();
  EXPECT_EQ(st.blocks_decoded, 12u);
  EXPECT_GT(st.evictions, 0u);
  // Requests arrive one at a time and decode inline, so beside the
  // shared cache at most one decode's output and compressed staging
  // buffers are leased. Per-connection caches would hold 4 x 2 blocks.
  EXPECT_LE(st.pool.peak_outstanding, opt.session.cache_blocks * opt.worker_threads + 2);
}

TEST(ServeNet, ConnectionsShareOneDecodeCache) {
  // A block decoded for one connection is a cache hit for the next.
  const ServerFixture f;
  net::Server server(f.factory(), f.options());
  server.start();
  const std::uint64_t before = metrics_snapshot().counter("serve.blocks_decoded");
  net::HttpClient first(server.port());
  net::HttpClient second(server.port());
  for (net::HttpClient* client : {&first, &second}) {
    net::HttpResponse resp;
    ASSERT_TRUE(client->get("/archive", {"Range: bytes=40000-40999"}, resp));
    ASSERT_EQ(resp.status, 206);
    EXPECT_TRUE(std::equal(f.input.begin() + 40000, f.input.begin() + 41000,
                           reinterpret_cast<const std::uint8_t*>(resp.body.data())));
  }
  server.stop();
  EXPECT_EQ(server.stats().accepted, 2u);
  EXPECT_EQ(metrics_snapshot().counter("serve.blocks_decoded") - before, 1u);
}

}  // namespace
}  // namespace gompresso
