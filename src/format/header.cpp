#include "format/header.hpp"

#include <algorithm>

#include "util/varint.hpp"

namespace gompresso::format {

Bytes FileHeader::serialize() const {
  Bytes out;
  put_u32le(out, kMagic);
  out.push_back(kVersion);
  out.push_back(static_cast<std::uint8_t>(codec));
  out.push_back(dependency_elimination ? 1 : 0);
  out.push_back(codeword_limit);
  put_varint(out, window_size);
  put_varint(out, min_match);
  put_varint(out, max_match);
  put_varint(out, block_size);
  put_varint(out, tokens_per_subblock);
  put_varint(out, uncompressed_size);
  put_varint(out, block_compressed_sizes.size());
  for (const auto s : block_compressed_sizes) put_varint(out, s);
  return out;
}

FileHeader FileHeader::deserialize(ByteSpan data, std::size_t& pos) {
  util::SpanReader reader(data.subspan(pos));
  const FileHeader h = deserialize(reader);
  pos += static_cast<std::size_t>(reader.offset());
  return h;
}

FileHeader FileHeader::deserialize(util::ByteReader& reader) {
  check_format(reader.read_u32le() == kMagic, "format: bad magic");
  return deserialize_body(reader);
}

FileHeader FileHeader::deserialize_body(util::ByteReader& reader) {
  FileHeader h;
  check_format(reader.read_u8() == kVersion, "format: unsupported version");
  const std::uint8_t codec_byte = reader.read_u8();
  // Byte 2 was Gompresso/Tans, a tANS-coded variant that is no longer
  // part of the format: name it rather than calling it unknown.
  check_format(codec_byte != 2, "format: codec 2 (Gompresso/Tans) is no longer supported");
  check_format(codec_byte <= 1, "format: unknown codec");
  h.codec = static_cast<Codec>(codec_byte);
  h.dependency_elimination = reader.read_u8() != 0;
  h.codeword_limit = reader.read_u8();
  check_format(h.codeword_limit >= 1 && h.codeword_limit <= 15, "format: bad CWL");
  h.window_size = static_cast<std::uint32_t>(reader.read_varint());
  h.min_match = static_cast<std::uint32_t>(reader.read_varint());
  h.max_match = static_cast<std::uint32_t>(reader.read_varint());
  h.block_size = static_cast<std::uint32_t>(reader.read_varint());
  h.tokens_per_subblock = static_cast<std::uint32_t>(reader.read_varint());
  h.uncompressed_size = reader.read_varint();
  const std::uint64_t num_blocks = reader.read_varint();
  check_format(num_blocks <= (1ull << 32), "format: implausible block count");
  check_format(h.block_size > 0, "format: zero block size");
  check_format(h.tokens_per_subblock > 0, "format: zero tokens per sub-block");
  // The reserve is only a hint — bound it so a crafted num_blocks just
  // under the plausibility cap cannot attempt a 32 GiB allocation from a
  // ~15-byte input before the per-entry reads fail on truncation.
  h.block_compressed_sizes.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(num_blocks, 1u << 16)));
  for (std::uint64_t i = 0; i < num_blocks; ++i) {
    h.block_compressed_sizes.push_back(reader.read_varint());
  }
  return h;
}

void FileHeader::check_block_count() const {
  check_format(num_blocks() == div_ceil<std::uint64_t>(uncompressed_size, block_size),
        "format: block count inconsistent with uncompressed size");
}

void FileHeader::check_payload(std::uint64_t payload_bytes) const {
  check_block_count();
  std::uint64_t total = 0;
  for (const std::uint64_t s : block_compressed_sizes) {
    // Incremental bound so an adversarial size list cannot overflow the
    // accumulator before the comparison.
    check_format(s <= payload_bytes - total,
          "format: compressed payload shorter than the block size list "
          "(truncated file?)");
    total += s;
  }
  check_format(total == payload_bytes,
        "format: compressed payload does not match the block size list");
}

}  // namespace gompresso::format
