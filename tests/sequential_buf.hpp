// A pipe for tests: a std::streambuf that reads from a string but cannot
// seek (pubseekoff keeps the std::streambuf default of failing), so
// decompress_stream() takes its non-seekable path.
#pragma once

#include <sstream>
#include <streambuf>
#include <string>
#include <utility>

#include "core/stream.hpp"

namespace gompresso::testing {

class SequentialBuf : public std::streambuf {
 public:
  explicit SequentialBuf(std::string data) : data_(std::move(data)) {
    setg(data_.data(), data_.data(), data_.data() + data_.size());
  }

 private:
  std::string data_;
};

/// Decodes `file` through decompress_stream() over a SequentialBuf.
inline Bytes decompress_pipe(ByteSpan file, const DecompressOptions& options = {}) {
  SequentialBuf buf(std::string(file.begin(), file.end()));
  std::istream in(&buf);
  std::ostringstream out;
  decompress_stream(in, out, options);
  const std::string s = out.str();
  return Bytes(s.begin(), s.end());
}

}  // namespace gompresso::testing
