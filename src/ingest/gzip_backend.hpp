// GzipBackend: serves an RFC 1952 gzip stream through the
// serve::ContainerBackend seam, so a DecodeSession (and everything on
// top of it — prefetch, LRU cache, retry/backoff, damage-tolerant
// reads, the net daemon) works on .gz exactly as on the native
// container. Each "block" is one GzipChunk of the discovered index:
// decode stages the chunk's compressed byte extent, then re-inflates
// it with its checkpointed 32 KiB start window — no markers, no
// dependence on neighbouring chunks.
#pragma once

#include <memory>

#include "ingest/gzip_index.hpp"
#include "serve/backend.hpp"

namespace gompresso::ingest {

/// Wraps a prebuilt (or sidecar-loaded) index.
std::shared_ptr<serve::ContainerBackend> make_gzip_backend(GzipIndex index);

/// Builds the index from `source` first (one full decode of the
/// stream), then wraps it.
std::shared_ptr<serve::ContainerBackend> make_gzip_backend(
    serve::ByteSource& source, const GzipIndexOptions& options = {});

/// The GzipIndex behind `backend` (`gomp info` prints its member count), or
/// nullptr when it is not a gzip backend.
const GzipIndex* gzip_index(const serve::ContainerBackend& backend);

}  // namespace gompresso::ingest
