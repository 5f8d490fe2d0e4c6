// Mutation fuzz for the seek-index sidecars ("GMPX", "GZIX"). A sidecar
// is untrusted input like the container it indexes: every mutant must
// either parse or throw FormatError, and a mutant that parses, opened as
// the sidecar of the real container, must read back exactly the
// container's bytes or throw a gompresso::Error. Serving other bytes
// without an error is a failure, as are crashes and sanitizer reports
// (the ASan/UBSan and TSan jobs run both callers).
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "core/gompresso.hpp"
#include "fuzz_budget.hpp"
#include "util/rng.hpp"

namespace gompresso::testing {

/// One mutant of `valid`: 1-4 byte flips, a truncation, or a run of
/// 10-12 continuation bytes spliced in past the magic (a varint longer
/// than 64 bits wherever the run lands on one).
inline Bytes mutate_sidecar(const Bytes& valid, Rng& rng) {
  Bytes m = valid;
  switch (rng.next_below(3)) {
    case 0: {
      const std::uint64_t flips = 1 + rng.next_below(4);
      for (std::uint64_t i = 0; i < flips; ++i) {
        m[rng.next_below(m.size())] ^=
            static_cast<std::uint8_t>(1 + rng.next_below(255));
      }
      break;
    }
    case 1:
      m.resize(rng.next_below(m.size()));
      break;
    default: {
      const Bytes run(10 + rng.next_below(3), 0xFF);
      const std::uint64_t at = 5 + rng.next_below(m.size() - 5);
      m.insert(m.begin() + static_cast<long>(at), run.begin(), run.end());
    }
  }
  return m;
}

struct SidecarFuzzCounts {
  int rejected = 0;  // parse threw FormatError
  int loaded = 0;    // parsed, then read back `expected` or threw an Error
};

/// Runs fuzz_trials(300) mutants of `valid` through `parse` (the
/// sidecar's deserialize), and each mutant that parses through open()
/// over `container`, read to the end on one thread; what it reads must
/// be `expected` (the container's decoded bytes) unless it throws.
/// `path` is the temporary file each mutant is written to.
template <typename Parse>
SidecarFuzzCounts fuzz_sidecar(const Bytes& valid, const Bytes& container,
                               const Bytes& expected, const std::string& path,
                               Parse&& parse) {
  SidecarFuzzCounts counts;
  Rng rng(0x5EEDCA5Eu);
  const int trials = fuzz_trials(300);
  for (int trial = 0; trial < trials; ++trial) {
    const Bytes m = mutate_sidecar(valid, rng);
    try {
      parse(ByteSpan(m.data(), m.size()));
    } catch (const FormatError&) {
      ++counts.rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "trial " << trial << ": parse threw " << e.what();
      continue;
    }
    ++counts.loaded;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(m.data()),
                static_cast<std::streamsize>(m.size()));
    }
    OpenOptions opt;
    opt.sidecar_path = path;
    opt.session.num_threads = 1;
    try {
      const auto session = open(serve::memory_source(container), opt);
      Bytes served;
      Bytes chunk(64 * 1024);
      while (const std::size_t n = session->read(MutableByteSpan(chunk.data(), chunk.size()))) {
        served.insert(served.end(), chunk.begin(), chunk.begin() + static_cast<long>(n));
      }
      EXPECT_TRUE(served == expected)
          << "trial " << trial << ": a loaded mutant served " << served.size()
          << " bytes that differ from the " << expected.size() << " expected, with no error";
    } catch (const Error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "trial " << trial << ": open/read threw " << e.what();
    }
  }
  std::remove(path.c_str());
  return counts;
}

}  // namespace gompresso::testing
