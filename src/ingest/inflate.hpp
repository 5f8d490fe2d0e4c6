// Two-pass DEFLATE (RFC 1951) inflate for the gzip ingest backend.
//
// The rapidgzip recipe (PAPERS.md) needs three capabilities beyond a
// classic inflate:
//
//   * decode from an ARBITRARY bit offset with an UNKNOWN 32 KiB
//     window — back-references that reach before the chunk start are
//     emitted as 16-bit marker tokens (kMarkerBase + window index) and
//     patched to bytes once the predecessor chunk's window arrives
//     (MarkerSink / patch_markers);
//   * speculatively find DEFLATE block boundaries in the middle of a
//     stream (find_block_boundary): try each bit offset, parse a block
//     header with strong structural filters (an exactly Kraft-complete
//     lit/len code containing end-of-block, a complete distance code),
//     and let a full trial decode confirm the survivor;
//   * decode a bounded CHUNK of blocks — stop at the first block
//     boundary at/after a target bit — handling gzip member
//     transitions (trailer + next header + window reset) mid-chunk.
//
// The hot loop reuses the fused-table technique of the native codec
// (core/decode_tables.hpp packing, huffman::build_packed_table): one
// table load per token carrying value + extra-bit count + code length
// + kind, with double-literal upgrading, and one BitReader::refill()
// per token (worst case lit/len 15 + extra 5 + dist 15 + extra 13 =
// 48 <= 56 guaranteed bits).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bitstream/bit_reader.hpp"
#include "util/common.hpp"

namespace gompresso::ingest {

/// DEFLATE window (RFC 1951 §2): no back-reference reaches further.
inline constexpr std::size_t kWindowSize = 32768;

/// Marker tokens: token < kMarkerBase is a literal byte; token
/// kMarkerBase + w reads start-window byte w, where w indexes a dense
/// 32 KiB window ending immediately before the chunk (w = 0 is the
/// oldest byte, kWindowSize - 1 the byte just before the chunk).
inline constexpr std::uint16_t kMarkerBase = 256;

/// Fused decode tables for one DEFLATE block (entry layout shared with
/// core/decode_tables.hpp). Sized to the actual maximum code length so
/// speculative rebuilds stay small.
struct InflateTables {
  std::vector<std::uint32_t> litlen;
  unsigned litlen_bits = 0;
  std::vector<std::uint32_t> dist;
  unsigned dist_bits = 0;
};

/// Per-worker scratch: code-length buffers and tables are reused
/// across blocks/candidates so steady-state decode allocates nothing.
class InflateScratch {
 public:
  InflateTables tables;                      // current dynamic block
  std::vector<std::uint8_t> litlen_lengths;  // 288 entries when parsed
  std::vector<std::uint8_t> dist_lengths;    // 30 entries when parsed
  std::vector<std::uint8_t> precode_lengths;
  std::vector<std::uint32_t> precode_table;

  /// Fixed-code tables (RFC 1951 §3.2.6), built on first use.
  const InflateTables& fixed();

 private:
  InflateTables fixed_;
  bool fixed_built_ = false;
};

/// Parses a dynamic block header (HLIT/HDIST/HCLEN + precode +
/// run-length-coded lengths) at `br` into s.litlen_lengths /
/// s.dist_lengths. Returns false on any structural violation; never
/// throws (the boundary finder calls this at nearly every bit offset).
/// `require_complete` additionally demands an exactly Kraft-complete
/// lit/len code with a non-zero end-of-block length and a complete (or
/// explicitly empty) distance code — real encoders always emit such
/// headers, and the extra filter is what makes false boundary
/// candidates rare.
bool parse_dynamic_header(BitReader& br, InflateScratch& s, bool require_complete);

/// Builds s.tables from the lengths a parse_dynamic_header() call left
/// in `s`. Throws CorruptionError on an invalid code.
void build_dynamic_tables(InflateScratch& s);

/// No plausible block boundary in the scan range.
inline constexpr std::uint64_t kNoBoundary = ~std::uint64_t{0};

struct BoundaryScanStats {
  std::uint64_t bits_scanned = 0;
  std::uint64_t candidates = 0;  // offsets that survived the header filter
};

/// Scans bit offsets [begin_bit, end_bit) of `data` for the first
/// offset where a DEFLATE block header parses cleanly: BTYPE 2 with
/// the strong dynamic-header filter above, or BTYPE 0 whose byte-
/// aligned LEN/~NLEN pair checks out with LEN > 0. BTYPE 1 (fixed) is
/// never accepted as an anchor — any 3-bit pattern matches it, so it
/// carries no evidence (rapidgzip skips it for the same reason).
/// Returns the bit offset or kNoBoundary.
std::uint64_t find_block_boundary(ByteSpan data, std::uint64_t begin_bit,
                                  std::uint64_t end_bit, InflateScratch& s,
                                  BoundaryScanStats* stats = nullptr);

// ---------------------------------------------------------------- sinks

/// Resolved-byte sink over a caller-provided span (the serve-path
/// block decode: output size known from the index). Distances reaching
/// before the first produced byte resolve through `start_window`, the
/// tail of the stream's last <= 32 KiB before this chunk.
class ByteSink {
 public:
  ByteSink(MutableByteSpan out, ByteSpan start_window)
      : out_(out.data()), cap_(out.size()), window_(start_window) {}

  std::uint64_t produced() const { return pos_; }

  void push(std::uint8_t b) {
    check_corrupt(pos_ < cap_, "gzip: block decodes past its indexed size");
    out_[pos_++] = b;
  }

  void copy(std::uint32_t length, std::uint32_t distance);

  /// Member boundary: references never cross it.
  void reset_window() {
    window_ = ByteSpan();
    member_base_ = pos_;
  }

 private:
  std::uint8_t* out_;
  std::size_t cap_;
  std::size_t pos_ = 0;
  ByteSpan window_;
  std::size_t member_base_ = 0;
};

/// Resolved-byte sink with growing storage (index build, sequential
/// fallback): the whole chunk output stays in bytes().
class GrowingByteSink {
 public:
  GrowingByteSink(ByteSpan start_window, std::uint64_t max_output)
      : window_(start_window), max_output_(max_output) {}

  std::uint64_t produced() const { return buf_.size(); }

  Bytes& bytes() { return buf_; }

  void push(std::uint8_t b) {
    guard_growth(1);
    buf_.push_back(b);
  }

  void copy(std::uint32_t length, std::uint32_t distance);

  /// Member boundary: references never cross it.
  void reset_window() {
    window_ = ByteSpan();
    member_base_ = buf_.size();
  }

 private:
  void guard_growth(std::uint64_t n) {
    check_corrupt(buf_.size() + n <= max_output_,
                  "gzip: chunk output exceeds the deflate expansion bound");
  }

  Bytes buf_;
  ByteSpan window_;
  std::uint64_t member_base_ = 0;
  std::uint64_t max_output_ = 0;
};

/// Marker-token sink for chunks whose window is unknown: literals and
/// in-chunk references resolve to byte tokens, references into the
/// unknown 32 KiB start window become markers. Copying an earlier
/// token forward is always correct — a marker names an absolute
/// start-window byte, independent of its position.
class MarkerSink {
 public:
  MarkerSink(std::vector<std::uint16_t>& out, std::uint64_t max_output)
      : out_(out), max_output_(max_output) {
    out_.clear();
  }

  std::uint64_t produced() const { return out_.size(); }

  void push(std::uint8_t b) {
    guard_growth(1);
    out_.push_back(b);
  }

  void copy(std::uint32_t length, std::uint32_t distance);

  void reset_window() {
    allow_window_ = false;
    member_base_ = out_.size();
  }

 private:
  void guard_growth(std::uint64_t n) {
    check_corrupt(out_.size() + n <= max_output_,
                  "gzip: chunk output exceeds the deflate expansion bound");
  }

  std::vector<std::uint16_t>& out_;
  bool allow_window_ = true;  // markers permitted (no member start seen yet)
  std::size_t member_base_ = 0;
  std::uint64_t max_output_ = 0;
};

/// Resolves (a piece of) a marker-token stream against the true start
/// window (exactly kWindowSize bytes, oldest first). out.size() must
/// equal tokens.size().
void patch_markers(std::span<const std::uint16_t> tokens, ByteSpan window,
                   MutableByteSpan out);

// --------------------------------------------------------- chunk driver

/// One gzip member ending inside a decoded chunk.
struct MemberEvent {
  std::uint64_t out_offset = 0;  // chunk-relative bytes produced at the end
  std::uint32_t crc32 = 0;       // trailer CRC32 of the whole member
  std::uint32_t isize = 0;       // trailer ISIZE (length mod 2^32)
};

enum class ChunkStatus {
  kStopped,      // reached stop_bit (or stop_output) at a block boundary
  kEndOfStream,  // final member's trailer consumed at stream_end_byte
  kNeedMoreData, // ran past `data` but the stream continues — grow the
                 // slice and retry (chunk decode is idempotent)
};

struct ChunkResult {
  std::uint64_t end_bit = 0;  // slice-relative bit after the last block
                              // (and any trailer/header it closed with)
  std::vector<MemberEvent> members;
};

/// No output bound on a chunk decode: it stops at stop_bit only.
inline constexpr std::uint64_t kNoOutputStop = ~std::uint64_t{0};

/// Decodes DEFLATE blocks from slice-relative `start_bit` (which must
/// be a block start) until the first block boundary at/after
/// `stop_bit` or after the sink produced `stop_output` bytes, or until
/// the stream ends (a member trailer closing at `stream_end_byte`,
/// also slice-relative; it may exceed data.size() when the slice is
/// partial — that is what kNeedMoreData reports). Member transitions
/// inside the chunk are consumed here: trailer parse (recorded in
/// result.members), next header skip, window reset.
ChunkStatus inflate_chunk(ByteSpan data, std::uint64_t start_bit,
                          std::uint64_t stop_bit, std::uint64_t stream_end_byte,
                          ByteSink& sink, InflateScratch& s, ChunkResult& result);
ChunkStatus inflate_chunk(ByteSpan data, std::uint64_t start_bit,
                          std::uint64_t stop_bit, std::uint64_t stream_end_byte,
                          GrowingByteSink& sink, InflateScratch& s,
                          ChunkResult& result,
                          std::uint64_t stop_output = kNoOutputStop);
ChunkStatus inflate_chunk(ByteSpan data, std::uint64_t start_bit,
                          std::uint64_t stop_bit, std::uint64_t stream_end_byte,
                          MarkerSink& sink, InflateScratch& s,
                          ChunkResult& result,
                          std::uint64_t stop_output = kNoOutputStop);

/// Worst-case DEFLATE expansion of `comp_bytes` compressed bytes (a
/// match emits <= 258 bytes for two 1-bit codes), plus slack for a
/// stored-block tail. Sinks use it as the runaway guard for
/// speculative candidates.
inline std::uint64_t max_inflated_bytes(std::uint64_t comp_bytes) {
  return comp_bytes * 1032 + 66000;
}

}  // namespace gompresso::ingest
