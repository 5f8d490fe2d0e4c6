#include "format/sniff.hpp"

#include "format/header.hpp"

namespace gompresso::format {

ContainerKind sniff_container(ByteSpan prefix) {
  if (prefix.size() >= 3 && prefix[0] == kGzipId1 && prefix[1] == kGzipId2 &&
      prefix[2] == kGzipCmDeflate) {
    return ContainerKind::kGzip;
  }
  if (prefix.size() >= 4) {
    std::uint32_t magic = 0;
    for (unsigned i = 0; i < 4; ++i) {
      magic |= static_cast<std::uint32_t>(prefix[i]) << (8 * i);
    }
    if (magic == kMagic) return ContainerKind::kGmpz;
    if (magic == kGmpsMagic) return ContainerKind::kGmps;
  }
  return ContainerKind::kUnknown;
}

}  // namespace gompresso::format
