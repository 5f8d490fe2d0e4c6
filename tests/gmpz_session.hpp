// Test helper: a native-container DecodeSession whose seek index is
// scanned through the session's own source. A fault-injecting source
// therefore sees the index scan's reads as well as the block reads —
// the shape of `DecodeSession(src, make_gmpz_backend(SeekIndex::build(*src)))`
// without the unsequenced use of `src` that one expression would have.
// gompresso::open() is the production entry; tests that must control
// exactly which reads hit their source use this instead.
#pragma once

#include <memory>

#include "serve/backend.hpp"
#include "serve/decode_session.hpp"

namespace gompresso::test {

inline serve::DecodeSession gmpz_session(std::unique_ptr<serve::ByteSource> source,
                                         serve::SessionOptions opt = {}) {
  auto backend = serve::make_gmpz_backend(serve::SeekIndex::build(*source),
                                          opt.verify_checksums);
  return serve::DecodeSession(std::move(source), std::move(backend), std::move(opt));
}

}  // namespace gompresso::test
