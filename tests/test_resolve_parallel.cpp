// Tests for phase-2 LZ77 resolution: the production resolve_span
// wild-copy kernel — byte-equality across corpora and DE/non-DE parses,
// its write bounds at the window and literal-buffer edges, and its
// rejection of malformed spans on both the wild and the exact path — and
// single-block files decoded on a multi-thread pool, whose token lanes fan
// out before the kernel resolves them. The suite runs under
// ThreadSanitizer and AddressSanitizer in CI.
#include <gtest/gtest.h>

#include "core/decompressor.hpp"
#include "core/gompresso.hpp"
#include "datagen/datasets.hpp"
#include "lz77/parser.hpp"
#include "lz77/ref_decoder.hpp"

namespace gompresso::core {
namespace {

Bytes corpus(int which, std::size_t size) {
  switch (which) {
    case 0: return datagen::wikipedia(size);
    case 1: return datagen::matrix(size);
    case 2: return datagen::random_bytes(size / 2);
    case 3: return Bytes(size, 'w');
    default: {
      datagen::NestingConfig nc;
      nc.families = 2;
      return datagen::make_nesting(size, nc);
    }
  }
}

TEST(ResolveSpan, MatchesInputAcrossCorpora) {
  for (const bool de : {true, false}) {
    for (int which = 0; which < 5; ++which) {
      const Bytes input = corpus(which, 150000);
      lz77::ParserOptions popt;
      popt.dependency_elimination = de;
      const lz77::TokenBlock tokens = lz77::parse(input, popt, nullptr);
      Bytes out(tokens.uncompressed_size);
      EXPECT_EQ(lz77::resolve_span(tokens.sequences, tokens.literals.data(),
                                   tokens.literals.size(), out, /*base=*/0),
                out.size());
      EXPECT_EQ(out, input) << "corpus " << which << " de=" << de;
    }
  }
}

TEST(SingleBlockDecode, OneVsManyThreads) {
  // A single-block file decoded on a multi-thread pool fans its token
  // lanes out and must produce bytes identical to the 1-thread decode,
  // for every codec and both stream kinds.
  const Bytes input = datagen::wikipedia(400000);
  for (const Codec codec : {Codec::kBit, Codec::kByte}) {
    for (const bool de : {true, false}) {
      CompressOptions opt;
      opt.codec = codec;
      opt.dependency_elimination = de;
      opt.block_size = 1024 * 1024;  // > input: exactly one block
      const Bytes file = compress(input, opt);

      DecompressOptions one;
      one.num_threads = 1;
      const DecompressResult serial = decompress(file, one);
      ASSERT_EQ(serial.data, input);

      DecompressOptions many;
      many.num_threads = 4;
      const DecompressResult parallel = decompress(file, many);
      ASSERT_EQ(parallel.data, serial.data)
          << "codec " << static_cast<int>(codec) << " de=" << de;
      EXPECT_EQ(parallel.scratch.lane_fanouts, 1u);
      // The arena is pre-reserved from the header bound: the fan-out
      // must not have cost the block its buffer-reuse claim.
      EXPECT_EQ(parallel.scratch.blocks, parallel.scratch.buffer_reuses);
    }
  }
}

TEST(SingleBlockDecode, TinyBlockOnPool) {
  // A block too small to fan its lanes out still decodes right on a pool.
  const Bytes input = datagen::wikipedia(8000);
  const Bytes file = compress(input, CompressOptions{});
  DecompressOptions dopt;
  dopt.num_threads = 4;
  EXPECT_EQ(decompress(file, dopt).data, input);
}

TEST(ResolveSpan, ResolvesAtAbsoluteBaseOverDonePrefix) {
  // Resolve a block serially, then re-resolve its tail span over a
  // window whose prefix is the already-resolved output.
  const Bytes input = datagen::wikipedia(100000);
  lz77::ParserOptions popt;
  const lz77::TokenBlock tokens = lz77::parse(input, popt, nullptr);
  const Bytes whole = lz77::decode_reference(tokens);
  ASSERT_EQ(whole, input);

  // Split the sequence list in the middle.
  const std::size_t split = tokens.sequences.size() / 2;
  std::uint64_t head_lits = 0;
  std::uint64_t head_out = 0;
  for (std::size_t i = 0; i < split; ++i) {
    head_lits += tokens.sequences[i].literal_len;
    head_out += tokens.sequences[i].literal_len + tokens.sequences[i].match_len;
  }
  Bytes window(whole.begin(), whole.end());
  // Scrub the tail, then re-resolve only the tail span at its base.
  std::fill(window.begin() + static_cast<std::ptrdiff_t>(head_out), window.end(), 0);
  const std::uint64_t written = lz77::resolve_span(
      std::span<const lz77::Sequence>(tokens.sequences).subspan(split),
      tokens.literals.data() + head_lits, tokens.literals.size() - head_lits,
      window, head_out);
  EXPECT_EQ(written, whole.size() - head_out);
  EXPECT_EQ(window, whole);
}

/// Byte-at-a-time LZ77 resolution from window[out] on: the semantics the
/// wild-copy kernel must reproduce.
void resolve_bytewise(std::span<const lz77::Sequence> sequences,
                      const std::uint8_t* literals, std::uint8_t* window,
                      std::uint64_t out) {
  for (const lz77::Sequence& seq : sequences) {
    for (std::uint32_t i = 0; i < seq.literal_len; ++i) window[out++] = *literals++;
    for (std::uint32_t i = 0; i < seq.match_len; ++i, ++out) {
      window[out] = window[out - seq.match_dist];
    }
  }
}

TEST(ResolveSpan, WildCopyStaysInsideWindowAndLiterals) {
  // Every copy shape the kernel special-cases (memset, copy_backref for
  // distances 2-15, 16-byte chunks from 16 on, overlapping or not) at
  // every offset from the window end (0-40 bytes after the sequence) and
  // from the literal buffer's end (0-20 bytes after the run), so both
  // sides of the window and literal room checks run. The window is a
  // sub-span of a larger buffer with guard bytes on each side, and the
  // literal buffer is an exact-size allocation, so a write past the
  // window shows in the guards and a read past the literals under ASan.
  // In a valid span the literals left never exceed the window left, so
  // the cases up to the window check's flip (tail 16) also run with
  // surplus literals, rejected at the end as a count mismatch: only the
  // window room check then keeps the writes inside.
  constexpr std::size_t kGuard = 64;
  std::vector<std::uint32_t> dists;
  for (std::uint32_t d = 1; d <= 33; ++d) dists.push_back(d);
  dists.push_back(64);
  dists.push_back(4096);
  std::vector<std::uint32_t> match_lens;
  for (std::uint32_t m = 1; m <= 40; ++m) match_lens.push_back(m);
  match_lens.push_back(255);
  const std::uint32_t literal_runs[] = {0, 1, 15, 16, 17, 40};

  std::uint32_t rng = 12345;
  const auto next_byte = [&rng] {
    rng = rng * 1664525u + 1013904223u;
    return static_cast<std::uint8_t>(rng >> 24);
  };
  std::uint64_t cases = 0;
  std::uint64_t base_cases_at_window_end = 0;
  Bytes buf;
  for (const std::uint32_t dist : dists) {
    for (const std::uint32_t match_len : match_lens) {
      for (const std::uint32_t lit : literal_runs) {
        for (std::uint32_t tail = 0; tail <= 40; ++tail) {
          // Literals left after the run; the trailing sequence consumes
          // them and fills the window's last `tail` bytes.
          const std::uint32_t lit_tail = tail % 21;
          // Alternate between resolving over an already-done prefix
          // (base > 0) and writing that prefix as a leading literal run.
          const bool at_base = (++cases & 1) != 0;
          const std::uint32_t prefix = dist + 7;
          std::vector<lz77::Sequence> seqs;
          if (!at_base) seqs.push_back({prefix, 0, 0});
          seqs.push_back({lit, match_len, dist});
          const std::uint32_t tail_match = tail - lit_tail;
          seqs.push_back({lit_tail, tail_match, tail_match != 0 ? 5u : 0u});

          for (const std::uint32_t surplus : {0u, 32u}) {
            if (surplus != 0 && tail > 16) continue;
            Bytes literals((at_base ? 0 : prefix) + lit + lit_tail + surplus);
            for (auto& b : literals) b = next_byte();
            const std::size_t window_size = prefix + lit + match_len + tail;
            buf.assign(window_size + 2 * kGuard, 0xA5);
            const std::uint64_t base = at_base ? prefix : 0;
            for (std::uint64_t i = 0; i < base; ++i) buf[kGuard + i] = next_byte();
            Bytes expect = buf;
            resolve_bytewise(seqs, literals.data(), expect.data() + kGuard, base);

            const MutableByteSpan window(buf.data() + kGuard, window_size);
            if (surplus == 0) {
              ASSERT_EQ(lz77::resolve_span(seqs, literals.data(), literals.size(),
                                           window, base),
                        window_size - base);
            } else {
              ASSERT_THROW(lz77::resolve_span(seqs, literals.data(), literals.size(),
                                              window, base),
                           Error);
            }
            ASSERT_EQ(buf, expect) << "dist " << dist << " match " << match_len
                                   << " literals " << lit << " tail " << tail
                                   << " literal tail " << lit_tail << " surplus "
                                   << surplus << " at_base " << at_base;
            if (at_base && tail == 0) ++base_cases_at_window_end;
          }
        }
      }
    }
  }
  EXPECT_GT(base_cases_at_window_end, 0u);
}

TEST(ResolveSpan, RejectsMalformedSpans) {
  lz77::Sequence bad_dist{1, 4, 9};
  lz77::Sequence term{0, 0, 0};
  const std::uint8_t lit = 'a';
  Bytes window(5);
  {
    const lz77::Sequence seqs[] = {bad_dist, term};
    EXPECT_THROW(lz77::resolve_span(seqs, &lit, 1, window, 0), Error);
  }
  {
    // Output overrun: window too small for the span.
    const lz77::Sequence seqs[] = {{1, 8, 1}, term};
    EXPECT_THROW(lz77::resolve_span(seqs, &lit, 1, window, 0), Error);
  }
  {
    // Literal buffer too small.
    const lz77::Sequence seqs[] = {{3, 0, 0}};
    EXPECT_THROW(lz77::resolve_span(seqs, &lit, 1, window, 0), Error);
  }
  {
    // Base past the window.
    const lz77::Sequence seqs[] = {term};
    EXPECT_THROW(lz77::resolve_span(seqs, &lit, 0, window, 9), Error);
  }
  // The same faults with room for wild copies around the bad sequence,
  // so the fast path's checks reject them rather than the exact path's.
  Bytes big(4096);
  const Bytes lits(64, 'b');
  const lz77::Sequence warm{8, 8, 4};  // fast-path sequences first
  {
    const lz77::Sequence seqs[] = {warm, warm, {8, 8, 0}, {32, 0, 0}};
    EXPECT_THROW(lz77::resolve_span(seqs, lits.data(), lits.size(), big, 0), Error)
        << "distance 0";
  }
  {
    // Written so far: 16 + 16 + 8 literals = 40 bytes.
    const lz77::Sequence seqs[] = {warm, warm, {8, 8, 41}, {32, 0, 0}};
    EXPECT_THROW(lz77::resolve_span(seqs, lits.data(), lits.size(), big, 0), Error)
        << "distance past the bytes written";
  }
  {
    // Literal buffer overrun with window room: the literal half of the
    // fast path falls back to its exact check.
    const lz77::Sequence seqs[] = {warm, {80, 8, 4}, term};
    EXPECT_THROW(lz77::resolve_span(seqs, lits.data(), lits.size(), big, 0), Error)
        << "literal buffer overrun";
  }
  {
    // 8 + 8 + 8 literals consumed of 64.
    const lz77::Sequence seqs[] = {warm, warm, warm, term};
    EXPECT_THROW(lz77::resolve_span(seqs, lits.data(), lits.size(), big, 0), Error)
        << "literal count mismatch";
  }
}

}  // namespace
}  // namespace gompresso::core
