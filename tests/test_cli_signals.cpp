// Regression tests for the CLI process surface: SIGINT mid-`gomp cat
// --trace` must still finish the trace file and exit 130, SIGTERM
// against `gomp serve` must drain gracefully and exit 0, and `gomp d`
// must decode every container the sniffer accepts (GMPZ, GMPS, gzip,
// and gzip on a pipe) and exit 1 on a lying gzip trailer, and `gomp
// info` must describe each of them. Every test fork/execs the real
// binary (a sibling of this test executable) so the handlers, the
// TraceGuard teardown order, and the exit codes are exercised exactly as
// a user would hit them.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/gompresso.hpp"
#include "datagen/datasets.hpp"
#include "net/http.hpp"
#include "util/crc32.hpp"
#include "util/varint.hpp"

namespace gompresso {
namespace {

std::string cli_binary() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return "./gomp_cli";
  std::string self(buf, static_cast<std::size_t>(n));
  const std::size_t slash = self.rfind('/');
  return self.substr(0, slash + 1) + "gomp_cli";
}

std::string temp_path(const char* tag) {
  return "/tmp/gomp_sig_" + std::to_string(getpid()) + "_" + tag;
}

void write_archive(const std::string& path, std::size_t input_size) {
  const Bytes input = datagen::wikipedia(input_size);
  CompressOptions opt;
  opt.block_size = 16 * 1024;
  const Bytes file = compress(input, opt);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(file.data()),
            static_cast<std::streamsize>(file.size()));
  ASSERT_TRUE(out.good());
}

/// fork/exec the CLI with stdout redirected to `stdout_fd` and stderr to
/// `stderr_fd` (each inherited when -1). Returns the child pid.
pid_t spawn_cli(const std::vector<std::string>& args, int stdout_fd,
                int stderr_fd = -1) {
  const std::string bin = cli_binary();
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(bin.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid == 0) {
    if (stdout_fd >= 0) {
      dup2(stdout_fd, STDOUT_FILENO);
      close(stdout_fd);
    }
    if (stderr_fd >= 0) {
      dup2(stderr_fd, STDERR_FILENO);
      close(stderr_fd);
    }
    execv(bin.c_str(), argv.data());
    _exit(127);
  }
  return pid;
}

/// waitpid with a deadline; SIGKILLs and fails the test on a hang.
int wait_for_exit(pid_t pid, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  int status = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const pid_t got = waitpid(pid, &status, WNOHANG);
    if (got == pid) return status;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill(pid, SIGKILL);
  waitpid(pid, &status, 0);
  ADD_FAILURE() << "child did not exit within " << timeout_ms << " ms";
  return status;
}

void write_bytes(const std::string& path, const Bytes& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good());
}

Bytes read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

/// Runs `gomp <args>` to completion; returns the exit status and leaves
/// the child's stdout in `out` and its stderr in `err`.
int run_cli(const std::vector<std::string>& args, std::string& out,
            std::string& err) {
  const std::string out_path = temp_path("cli.out");
  const std::string err_path = temp_path("cli.err");
  const int out_fd = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
  const int err_fd = ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
  const pid_t pid = spawn_cli(args, out_fd, err_fd);
  close(out_fd);
  close(err_fd);
  const int status = wait_for_exit(pid, 60000);
  const Bytes out_bytes = read_bytes(out_path);
  const Bytes err_bytes = read_bytes(err_path);
  out.assign(out_bytes.begin(), out_bytes.end());
  err.assign(err_bytes.begin(), err_bytes.end());
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Runs `gomp d input output` to completion; returns the exit status and
/// leaves the child's stderr in `err`.
int run_decompress(const std::string& input, const std::string& output,
                   std::string& err) {
  std::string out;
  return run_cli({"d", input, output}, out, err);
}

bool have_gzip_binary() {
  return std::system("gzip --version >/dev/null 2>&1") == 0;
}

/// One gzip member holding `data` (< 64 KiB) in a single stored DEFLATE
/// block, with the given trailer CRC.
Bytes gzip_stored_member(const Bytes& data, std::uint32_t trailer_crc) {
  Bytes out = {0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 255};  // header, no flags
  const auto n = static_cast<std::uint16_t>(data.size());
  const auto nlen = static_cast<std::uint16_t>(~n);
  out.push_back(1);  // BFINAL = 1, BTYPE = stored
  for (const std::uint16_t v : {n, nlen}) {
    out.push_back(static_cast<std::uint8_t>(v & 0xFF));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  out.insert(out.end(), data.begin(), data.end());
  put_u32le(out, trailer_crc);
  put_u32le(out, static_cast<std::uint32_t>(data.size()));
  return out;
}

/// `gomp d archive` must exit 0 and reproduce `input`; removes the archive.
void expect_decompress_roundtrip(const std::string& archive, const Bytes& input) {
  const std::string output = archive + ".out";
  std::string err;
  EXPECT_EQ(run_decompress(archive, output, err), 0) << archive << ": " << err;
  EXPECT_EQ(read_bytes(output), input) << archive;
  std::remove(output.c_str());
  std::remove(archive.c_str());
}

TEST(CliDecompress, RoundTripsGmpzAndGmps) {
  const Bytes input = datagen::wikipedia(300000);
  CompressOptions opt;
  opt.block_size = 16 * 1024;
  const std::string gmpz = temp_path("d.gmpz");
  write_bytes(gmpz, compress(input, opt));
  expect_decompress_roundtrip(gmpz, input);

  const std::string raw = temp_path("d_input");
  const std::string gmps = temp_path("d.gmps");
  write_bytes(raw, input);
  compress_file(raw, gmps, opt, 64 * 1024);  // several GMPS segments
  std::remove(raw.c_str());
  expect_decompress_roundtrip(gmps, input);
}

TEST(CliDecompress, RoundTripsSystemGzip) {
  if (!have_gzip_binary()) GTEST_SKIP() << "no gzip binary on PATH";
  const Bytes input = datagen::wikipedia(300000);
  const std::string raw = temp_path("d_input");
  const std::string gz = temp_path("d.gz");
  write_bytes(raw, input);
  ASSERT_EQ(std::system(("gzip -6 -n -c " + raw + " > " + gz).c_str()), 0);
  std::remove(raw.c_str());

  // Piped: `cat | gomp d /dev/stdin` cannot seek its input, so this
  // reaches the pipe path (a `< file` redirect would be seekable).
  const std::string piped = gz + ".piped";
  ASSERT_EQ(std::system(("cat " + gz + " | " + cli_binary() + " d /dev/stdin " +
                         piped + " >/dev/null")
                            .c_str()),
            0);
  EXPECT_EQ(read_bytes(piped), input);
  std::remove(piped.c_str());

  expect_decompress_roundtrip(gz, input);
}

TEST(CliInfo, SniffsGmpzGmpsAndGzip) {
  const Bytes input = datagen::wikipedia(300000);
  CompressOptions opt;
  opt.block_size = 16 * 1024;
  const std::string gmpz = temp_path("info.gmpz");
  write_bytes(gmpz, compress(input, opt));
  std::string out;
  std::string err;
  EXPECT_EQ(run_cli({"info", gmpz}, out, err), 0) << err;
  EXPECT_NE(out.find("container:           gmpz\n"), std::string::npos) << out;
  EXPECT_NE(out.find("uncompressed size:   300000 B\n"), std::string::npos) << out;
  EXPECT_NE(out.find("blocks:              19\n"), std::string::npos) << out;
  EXPECT_NE(out.find("segments:            1\n"), std::string::npos) << out;
  EXPECT_NE(out.find("block size:          16384 B\n"), std::string::npos) << out;
  std::remove(gmpz.c_str());

  const std::string raw = temp_path("info_input");
  write_bytes(raw, input);
  const std::string gmps = temp_path("info.gmps");
  compress_file(raw, gmps, opt, 64 * 1024);  // five segments
  EXPECT_EQ(run_cli({"info", gmps}, out, err), 0) << err;
  EXPECT_NE(out.find("container:           gmps\n"), std::string::npos) << out;
  EXPECT_NE(out.find("uncompressed size:   300000 B\n"), std::string::npos) << out;
  EXPECT_NE(out.find("segments:            5\n"), std::string::npos) << out;
  EXPECT_NE(out.find("codec:               Gompresso/Bit\n"), std::string::npos) << out;
  std::remove(gmps.c_str());

  if (have_gzip_binary()) {
    const std::string gz = temp_path("info.gz");
    ASSERT_EQ(std::system(("gzip -6 -n -c " + raw + " > " + gz).c_str()), 0);
    EXPECT_EQ(run_cli({"info", gz}, out, err), 0) << err;
    EXPECT_NE(out.find("container:           gzip\n"), std::string::npos) << out;
    EXPECT_NE(out.find("uncompressed size:   300000 B\n"), std::string::npos) << out;
    EXPECT_NE(out.find("members:             1\n"), std::string::npos) << out;
    EXPECT_NE(out.find("blocks:              1\n"), std::string::npos) << out;
    std::remove(gz.c_str());
  }
  std::remove(raw.c_str());
}

TEST(CliDecompress, LyingGzipTrailerExitsOne) {
  const Bytes data = datagen::wikipedia(40000);
  const std::string honest = temp_path("honest.gz");
  const std::string lying = temp_path("lying.gz");
  const std::uint32_t crc = crc32(ByteSpan(data.data(), data.size()));
  write_bytes(honest, gzip_stored_member(data, crc));
  write_bytes(lying, gzip_stored_member(data, crc ^ 0xFFu));

  std::string err;
  EXPECT_EQ(run_decompress(honest, honest + ".out", err), 0) << err;
  EXPECT_EQ(read_bytes(honest + ".out"), data);

  EXPECT_EQ(run_decompress(lying, lying + ".out", err), 1);
  EXPECT_NE(err.find("CRC32 mismatch"), std::string::npos) << err;
  // The failed decode removes the partial output it wrote.
  EXPECT_FALSE(std::filesystem::exists(lying + ".out"));

  for (const std::string& p : {honest, honest + ".out", lying, lying + ".out"}) {
    std::remove(p.c_str());
  }
}

TEST(CliDecompress, FailureBeforeOpeningTheOutputLeavesItAlone) {
  const Bytes existing = {'k', 'e', 'e', 'p'};
  const std::string output = temp_path("keep.txt");
  write_bytes(output, existing);
  std::string err;
  EXPECT_EQ(run_decompress(temp_path("no_such_input.gmpz"), output, err), 1);
  EXPECT_NE(err.find("cannot open input file"), std::string::npos) << err;
  EXPECT_EQ(read_bytes(output), existing);
  std::remove(output.c_str());
}

TEST(CliDecompress, SameInputAndOutputIsRefusedAndKept) {
  const Bytes input = datagen::wikipedia(50000);
  const std::string archive = temp_path("same.gmpz");
  const Bytes file = compress(input);
  write_bytes(archive, file);
  std::string err;
  EXPECT_EQ(run_decompress(archive, archive, err), 1);
  EXPECT_NE(err.find("same file"), std::string::npos) << err;
  EXPECT_EQ(read_bytes(archive), file);
  std::remove(archive.c_str());
}

TEST(CliSignals, SigintDuringTracedCatFinishesTheTraceAndExits130) {
  const std::string archive = temp_path("cat.gmpz");
  const std::string output = temp_path("cat.out");
  const std::string trace = temp_path("cat_trace.json");
  write_archive(archive, 800000);  // ~50 blocks

  // 8 ms of injected latency per source read keeps the cat alive for
  // hundreds of milliseconds — plenty of window to land the signal.
  const pid_t pid = spawn_cli(
      {"cat", archive, output, "--trace", trace, "--inject-faults",
       "latency=8000"},
      -1);
  ASSERT_GT(pid, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_EQ(kill(pid, SIGINT), 0);

  const int status = wait_for_exit(pid, 15000);
  ASSERT_TRUE(WIFEXITED(status)) << "killed by signal, handler did not run";
  EXPECT_EQ(WEXITSTATUS(status), 130);

  // The interrupted run still flushed a complete trace: non-empty JSON
  // that terminates properly instead of an abandoned half-written file.
  std::ifstream in(trace);
  ASSERT_TRUE(in.good()) << "trace file missing";
  std::stringstream ss;
  ss << in.rdbuf();
  std::string body = ss.str();
  while (!body.empty() && (body.back() == '\n' || body.back() == ' ')) {
    body.pop_back();
  }
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body.front(), '{');
  EXPECT_EQ(body.back(), '}');
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);

  std::remove(archive.c_str());
  std::remove(output.c_str());
  std::remove(trace.c_str());
}

TEST(CliSignals, SigtermDuringServeDrainsAndExitsZero) {
  const std::string archive = temp_path("serve.gmpz");
  write_archive(archive, 300000);

  int pipe_fds[2];
  ASSERT_EQ(pipe(pipe_fds), 0);
  const pid_t pid =
      spawn_cli({"serve", archive, "--port", "0", "--workers", "2"},
                pipe_fds[1]);
  ASSERT_GT(pid, 0);
  close(pipe_fds[1]);

  // The daemon prints a parseable banner once the listener is bound:
  //   gomp serve: listening on 127.0.0.1:PORT (...)
  std::string banner;
  char c;
  while (banner.find('\n') == std::string::npos &&
         read(pipe_fds[0], &c, 1) == 1) {
    banner.push_back(c);
  }
  close(pipe_fds[0]);
  const std::string key = "listening on 127.0.0.1:";
  const std::size_t at = banner.find(key);
  ASSERT_NE(at, std::string::npos) << "banner: " << banner;
  const auto port = static_cast<std::uint16_t>(
      std::stoul(banner.substr(at + key.size())));
  ASSERT_GT(port, 0);

  // It really serves before the signal lands.
  net::HttpClient client(port);
  net::HttpResponse resp;
  ASSERT_TRUE(client.get("/healthz", {}, resp));
  EXPECT_EQ(resp.status, 200);

  ASSERT_EQ(kill(pid, SIGTERM), 0);
  const int status = wait_for_exit(pid, 15000);
  ASSERT_TRUE(WIFEXITED(status)) << "killed by signal, no graceful drain";
  EXPECT_EQ(WEXITSTATUS(status), 0);

  std::remove(archive.c_str());
}

}  // namespace
}  // namespace gompresso
