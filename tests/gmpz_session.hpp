// Test helper: a native-container DecodeSession whose seek index is
// scanned through the session's own source. A fault-injecting source
// therefore sees the index scan's reads as well as the block reads —
// the shape of `DecodeSession(src, make_gmpz_backend(SeekIndex::build(*src)))`
// without the unsequenced use of `src` that one expression would have.
// gompresso::open() is the production entry; tests that must control
// exactly which reads hit their source use this instead.
//
// Also ServeDelta: what a span of reads added to the process-wide
// `serve.*` registry counters, the only place a session counts its events.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "serve/backend.hpp"
#include "serve/decode_session.hpp"

namespace gompresso::test {

inline serve::DecodeSession gmpz_session(std::unique_ptr<serve::ByteSource> source,
                                         serve::SessionOptions opt = {}) {
  auto backend = serve::make_gmpz_backend(serve::SeekIndex::build(*source),
                                          opt.verify_checksums);
  return serve::DecodeSession(std::move(source), std::move(backend), std::move(opt));
}

/// Snapshots the registry when constructed; `delta("retries")` is what
/// `serve.retries` gained since. The counters sum every session in the
/// process, so a delta is one session's only while no other one reads.
class ServeDelta {
 public:
  ServeDelta() : before_(obs::metrics_snapshot()) {}

  std::uint64_t operator()(std::string_view name) const {
    return between(before_, obs::metrics_snapshot(), name);
  }

  /// `serve.<name>` in `after` minus in `before`.
  static std::uint64_t between(const obs::MetricsSnapshot& before,
                               const obs::MetricsSnapshot& after,
                               std::string_view name) {
    const std::string full = "serve." + std::string(name);
    return after.counter(full) - before.counter(full);
  }

 private:
  obs::MetricsSnapshot before_;
};

}  // namespace gompresso::test
