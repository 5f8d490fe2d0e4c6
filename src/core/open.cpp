#include "core/open.hpp"

#include <fstream>
#include <iterator>
#include <memory>

#include "format/sniff.hpp"
#include "ingest/gzip_backend.hpp"
#include "serve/seek_index.hpp"
#include "util/varint.hpp"

namespace gompresso {
namespace {

Bytes read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  check_io(in.good(), "open: cannot open sidecar");
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

/// The sidecar's own magic picks its loader; handing a backend a table
/// of the wrong flavor is a structural error, not a scan fallback —
/// silently rebuilding would hide the operator's mistake.
std::uint32_t sidecar_magic(ByteSpan sidecar) {
  std::size_t pos = 0;
  check_format(sidecar.size() >= 4, "open: sidecar too short");
  return get_u32le(sidecar, pos);
}

}  // namespace

std::shared_ptr<serve::ContainerBackend> open_backend(
    serve::ByteSource& source, const OpenOptions& options) {
  Bytes prefix(static_cast<std::size_t>(
      std::min<std::uint64_t>(source.size(), format::kSniffBytes)));
  if (!prefix.empty()) {
    source.read_at(0, MutableByteSpan(prefix.data(), prefix.size()));
  }
  const format::ContainerKind kind =
      format::sniff_container(ByteSpan(prefix.data(), prefix.size()));

  std::shared_ptr<serve::ContainerBackend> backend;
  switch (kind) {
    case format::ContainerKind::kGmpz:
    case format::ContainerKind::kGmps: {
      serve::SeekIndex index;
      if (!options.sidecar_path.empty()) {
        const Bytes sidecar = read_file_bytes(options.sidecar_path);
        check_format(sidecar_magic(sidecar) == serve::kIndexMagic,
                     "open: sidecar format does not match the container");
        index = serve::SeekIndex::deserialize(
            ByteSpan(sidecar.data(), sidecar.size()));
      } else {
        index = serve::SeekIndex::build(source);
      }
      backend = serve::make_gmpz_backend(std::move(index),
                                         options.session.verify_checksums);
      break;
    }
    case format::ContainerKind::kGzip: {
      if (!options.sidecar_path.empty()) {
        const Bytes sidecar = read_file_bytes(options.sidecar_path);
        check_format(sidecar_magic(sidecar) == ingest::kGzipIndexMagic,
                     "open: sidecar format does not match the container");
        backend = ingest::make_gzip_backend(
            ingest::GzipIndex::deserialize(ByteSpan(sidecar.data(), sidecar.size())),
            options.session.verify_checksums);
        break;
      }
      ingest::GzipIndexOptions g = options.gzip;
      // The index build parallelizes on the same pool resolution the
      // session will use for decode, unless the caller pinned one.
      std::unique_ptr<ThreadPool> own_pool;
      if (g.pool == nullptr) {
        g.pool = options.session.pool != nullptr
                     ? options.session.pool
                     : resolve_pool(options.session.num_threads, own_pool);
      }
      backend = ingest::make_gzip_backend(ingest::GzipIndex::build(source, g),
                                          options.session.verify_checksums);
      break;
    }
    case format::ContainerKind::kUnknown:
      throw FormatError("open: unrecognized container format");
  }
  check_format(backend->source_size() == source.size(),
               "serve: seek index does not match the source (rebuild it)");
  return backend;
}

std::unique_ptr<serve::DecodeSession> open(
    std::unique_ptr<serve::ByteSource> source, const OpenOptions& options) {
  check(source != nullptr, "open: null source");
  std::shared_ptr<serve::ContainerBackend> backend =
      open_backend(*source, options);
  return std::make_unique<serve::DecodeSession>(
      std::move(source), std::move(backend), options.session);
}

std::unique_ptr<serve::DecodeSession> open(const std::string& path,
                                           const OpenOptions& options) {
  return open(serve::open_file_source(path), options);
}

}  // namespace gompresso
