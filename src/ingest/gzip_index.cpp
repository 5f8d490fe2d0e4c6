#include "ingest/gzip_index.hpp"

#include <algorithm>
#include <deque>
#include <fstream>

#include "obs/trace.hpp"
#include "util/crc32.hpp"
#include "util/thread_annotations.hpp"
#include "util/varint.hpp"

namespace gompresso::ingest {
namespace {

struct IngestObs {
  obs::Counter index_builds = obs::registry().counter("ingest.index_builds", "builds");
  obs::Counter sidecar_loads = obs::registry().counter("ingest.sidecar_loads", "loads");
  obs::Counter chunks_indexed =
      obs::registry().counter("ingest.chunks_indexed", "chunks");
  obs::Counter chunk_fallbacks =
      obs::registry().counter("ingest.chunk_fallbacks", "chunks");
  obs::Counter boundary_candidates =
      obs::registry().counter("ingest.boundary_candidates", "candidates");
  obs::Counter boundary_bits_scanned =
      obs::registry().counter("ingest.boundary_bits_scanned", "bits");
  obs::Counter bytes_indexed = obs::registry().counter("ingest.bytes_indexed", "bytes");
  // Build stages, one sample per call: the boundary scan and decode of
  // a cell's speculative task, the pooled patch+CRC of a stitched
  // marker cell, the serial stitch of each indexed chunk, and in-order
  // decodes with the true window (every cell of a 1-thread build,
  // speculation misses of a parallel one).
  obs::Histogram scan_us = obs::registry().histogram("ingest.scan_us", "us");
  obs::Histogram marker_decode_us =
      obs::registry().histogram("ingest.marker_decode_us", "us");
  obs::Histogram patch_crc_us = obs::registry().histogram("ingest.patch_crc_us", "us");
  obs::Histogram stitch_us = obs::registry().histogram("ingest.stitch_us", "us");
  obs::Histogram fallback_us = obs::registry().histogram("ingest.fallback_us", "us");
};

const IngestObs& ingest_obs() {
  static const IngestObs instance;
  return instance;
}

/// Extra slice bytes past the grid pitch so a block straddling the
/// nominal chunk end usually decodes without a grow-and-retry.
constexpr std::uint64_t kSliceMargin = 64 * 1024;

/// Tokens patched per step of a patch+CRC task. The patched piece is
/// checksummed while it is still in cache, so no per-cell output
/// buffer ever exists.
constexpr std::size_t kPatchPiece = 64 * 1024;

/// CRC32 and length of one member segment of a cell's output.
struct SegmentCrc {
  std::uint32_t crc = 0;
  std::uint64_t len = 0;
};

/// One in-order run's member trailers and member-segment checksums.
struct RunCheck {
  std::vector<MemberEvent> members;  // out_offsets are run-relative
  std::vector<SegmentCrc> segments;  // members.size() + 1
};

/// Buffers one build participant reuses across cells.
struct WorkerScratch {
  InflateScratch inflate;
  Bytes slice;  // staged compressed bytes
  Bytes piece;  // patch+CRC output
};

/// One grid cell: its speculative task, then (once stitched) its final
/// decode result and member-segment checksums.
struct ChunkTask {
  // Inputs.
  std::uint64_t grid_byte = 0;       // c_i: cell begin (slice base)
  std::uint64_t next_grid_byte = 0;  // c_{i+1}: cell end (stop target)
  bool byte_mode = false;            // known start: decode bytes directly
  std::uint64_t start_bit = 0;       // byte mode only (absolute)

  // Outputs.
  bool ok = false;            // a decode from found_bit/start_bit succeeded
  std::uint64_t found_bit = 0;  // absolute block boundary the decode used
  std::uint64_t found_last = 0;  // last start that decodes the same
  std::uint64_t end_bit = 0;    // absolute end of the decoded run
  ChunkStatus status = ChunkStatus::kStopped;
  Bytes bytes;                       // byte mode
  std::vector<MemberEvent> members;  // out_offsets are chunk-relative
  BoundaryScanStats stats;
  // members.size() + 1 once the cell is stitched and checksummed; empty
  // for a cell the predecessor's run ate.
  std::vector<SegmentCrc> segments;
  // In-order runs after the speculative one (which members/segments
  // describe), in stream order: a miss decodes the whole cell this way,
  // and a run that stopped at the output cap leaves the rest to them.
  std::vector<RunCheck> more;
};

ByteSpan stage_slice(serve::ByteSource& source, std::uint64_t base,
                     std::uint64_t len, Bytes& buf) {
  buf.resize(static_cast<std::size_t>(len));
  source.read_at(base, MutableByteSpan(buf.data(), buf.size()));
  return ByteSpan(buf.data(), buf.size());
}

/// Checksums each member segment of a cell's `size` output bytes: the
/// pieces between the cell edges and the member trailers inside it.
/// crc_range(a, b) returns the CRC32 of output bytes [a, b).
template <typename CrcRange>
std::vector<SegmentCrc> segment_crcs(std::uint64_t size,
                                     const std::vector<MemberEvent>& members,
                                     CrcRange&& crc_range) {
  std::vector<SegmentCrc> segs;
  segs.reserve(members.size() + 1);
  std::uint64_t prev = 0;
  for (const MemberEvent& ev : members) {
    segs.push_back({crc_range(prev, ev.out_offset), ev.out_offset - prev});
    prev = ev.out_offset;
  }
  segs.push_back({crc_range(prev, size), size - prev});
  return segs;
}

std::vector<SegmentCrc> byte_segment_crcs(ByteSpan out,
                                          const std::vector<MemberEvent>& members) {
  return segment_crcs(out.size(), members, [&](std::uint64_t a, std::uint64_t b) {
    return crc32(out.subspan(static_cast<std::size_t>(a),
                             static_cast<std::size_t>(b - a)));
  });
}

/// Patches a marker cell against its true start window piece by piece
/// into `piece`, checksumming each piece as it goes.
std::vector<SegmentCrc> patch_segment_crcs(std::span<const std::uint16_t> tokens,
                                           ByteSpan window,
                                           const std::vector<MemberEvent>& members,
                                           Bytes& piece) {
  piece.resize(kPatchPiece);
  return segment_crcs(tokens.size(), members, [&](std::uint64_t a, std::uint64_t b) {
    std::uint32_t crc = 0;
    for (std::uint64_t p = a; p < b; p += kPatchPiece) {
      const std::size_t len =
          static_cast<std::size_t>(std::min<std::uint64_t>(kPatchPiece, b - p));
      const MutableByteSpan out(piece.data(), len);
      patch_markers(tokens.subspan(static_cast<std::size_t>(p), len), window, out);
      crc = crc32(out, crc);
    }
    return crc;
  });
}

/// Chains every run's segment CRCs, in stream order, into whole-member
/// CRC32/ISIZE checks against the trailers, and folds each run's
/// segments into the CRC32 of its chunk. Every run with output became
/// one chunk, in the same order.
void verify_members_and_checksum_chunks(const std::vector<ChunkTask>& cells,
                                        std::vector<GzipChunk>& chunks) {
  std::uint32_t crc = 0;
  std::uint64_t len = 0;
  std::size_t next_chunk = 0;
  const auto chain = [&](const std::vector<MemberEvent>& members,
                         const std::vector<SegmentCrc>& segments) {
    std::uint32_t run_crc = 0;
    std::uint64_t run_len = 0;
    for (std::size_t k = 0; k < segments.size(); ++k) {
      run_crc = crc32_combine(run_crc, segments[k].crc, segments[k].len);
      run_len += segments[k].len;
      crc = crc32_combine(crc, segments[k].crc, segments[k].len);
      len += segments[k].len;
      if (k == members.size()) break;  // the member continues in the next run
      check_corrupt(crc == members[k].crc32, "gzip: member CRC32 mismatch");
      check_corrupt(static_cast<std::uint32_t>(len) == members[k].isize,
                    "gzip: member ISIZE mismatch");
      crc = 0;
      len = 0;
    }
    if (run_len == 0) return;
    check(next_chunk < chunks.size() && chunks[next_chunk].uncomp_size == run_len,
          "gzip: run does not match its indexed chunk");
    chunks[next_chunk++].crc32 = run_crc;
  };
  for (const ChunkTask& t : cells) {
    chain(t.members, t.segments);
    for (const RunCheck& run : t.more) chain(run.members, run.segments);
  }
  check(next_chunk == chunks.size(), "gzip: indexed chunk without a checksum");
}

/// Decodes resolved bytes from absolute `start_bit` until the first
/// block boundary at/after byte `stop_byte` or after `max_output`
/// bytes, growing the staged slice on kNeedMoreData. Used for the
/// stream-start chunk (window known to be empty) and for in-order
/// decodes (window known from the predecessor). Corruption here is
/// genuine — the window is true.
struct ByteRun {
  std::uint64_t end_bit = 0;
  ChunkStatus status = ChunkStatus::kStopped;
  Bytes out;
  std::vector<MemberEvent> members;
};

ByteRun decode_byte_run(serve::ByteSource& source, std::uint64_t source_size,
                        std::uint64_t start_bit, std::uint64_t stop_byte,
                        std::uint64_t max_output, ByteSpan start_window,
                        WorkerScratch& ws) {
  const std::uint64_t base = start_bit >> 3;
  std::uint64_t slice_len =
      std::min(stop_byte - base + kSliceMargin, source_size - base);
  while (true) {
    const ByteSpan slice = stage_slice(source, base, slice_len, ws.slice);
    // Bounding by the staged slice (not the whole remaining stream)
    // caps the garbage a short slice's zero padding can decode into
    // before the grow-and-retry kicks in.
    GrowingByteSink sink(start_window, max_inflated_bytes(slice_len));
    ChunkResult res;
    const ChunkStatus status =
        inflate_chunk(slice, start_bit - 8 * base, (stop_byte - base) * 8,
                      source_size - base, sink, ws.inflate, res, max_output);
    if (status == ChunkStatus::kNeedMoreData) {
      slice_len = std::min(slice_len * 2, source_size - base);
      continue;  // terminates: a full slice can never report kNeedMoreData
    }
    ByteRun run;
    run.end_bit = 8 * base + res.end_bit;
    run.status = status;
    run.out = std::move(sink.bytes());
    run.members = std::move(res.members);
    return run;
  }
}

/// Speculative path: find a boundary in [grid_byte, next_grid_byte),
/// marker-decode from it into `tokens` (at most `max_output` tokens
/// plus one block). Boundary misses and false candidates leave
/// ok == false / advance the scan; only I/O errors escape.
void run_marker_task(serve::ByteSource& source, std::uint64_t source_size,
                     std::uint64_t max_output, ChunkTask& t,
                     std::vector<std::uint16_t>& tokens, WorkerScratch& ws) {
  const IngestObs& o = ingest_obs();
  const std::uint64_t base = t.grid_byte;
  const std::uint64_t stop_rel_bit = (t.next_grid_byte - base) * 8;
  std::uint64_t slice_len =
      std::min(t.next_grid_byte - base + kSliceMargin, source_size - base);
  std::uint64_t scan_from = 0;
  while (true) {
    const ByteSpan span = stage_slice(source, base, slice_len, ws.slice);
    bool grow = false;
    while (!grow) {
      std::uint64_t cand;
      {
        obs::StageScope stage("scan", "ingest", o.scan_us);
        cand = find_block_boundary(span, scan_from, stop_rel_bit, ws.inflate, &t.stats);
      }
      if (cand == kNoBoundary) return;  // the stitch decodes it in order
      MarkerSink sink(tokens, max_inflated_bytes(slice_len));
      ChunkResult res;
      ChunkStatus status;
      try {
        obs::StageScope stage("marker_decode", "ingest", o.marker_decode_us);
        status = inflate_chunk(span, cand, stop_rel_bit, source_size - base,
                               sink, ws.inflate, res, max_output);
      } catch (const CorruptionError&) {
        scan_from = cand + 1;  // false positive: keep scanning
        continue;
      }
      if (status == ChunkStatus::kNeedMoreData) {
        if (slice_len >= source_size - base) {
          scan_from = cand + 1;  // defensive; a full slice cannot ask for more
          continue;
        }
        slice_len = std::min(slice_len * 2, source_size - base);
        scan_from = cand;  // the candidate itself is still plausible
        grow = true;
        continue;
      }
      t.ok = true;
      t.found_bit = 8 * base + cand;
      t.found_last = 8 * base + last_equivalent_start(span, cand);
      t.end_bit = 8 * base + res.end_bit;
      t.status = status;
      t.members = std::move(res.members);
      return;
    }
  }
}

/// The stream-start cell: its window is known to be empty, so it
/// decodes (and checksums) bytes directly.
void run_byte_task(serve::ByteSource& source, std::uint64_t source_size,
                   std::uint64_t max_output, ChunkTask& t, WorkerScratch& ws) {
  obs::StageScope stage("marker_decode", "ingest", ingest_obs().marker_decode_us);
  ByteRun run = decode_byte_run(source, source_size, t.start_bit,
                                t.next_grid_byte, max_output, ByteSpan(), ws);
  t.ok = true;
  t.found_bit = t.found_last = t.start_bit;
  t.end_bit = run.end_bit;
  t.status = run.status;
  t.bytes = std::move(run.out);
  t.members = std::move(run.members);
  t.segments = byte_segment_crcs(t.bytes, t.members);
}

void roll_window(Bytes& window, ByteSpan out) {
  if (out.size() >= kWindowSize) {
    std::copy(out.end() - kWindowSize, out.end(), window.begin());
    return;
  }
  std::copy(window.begin() + static_cast<std::ptrdiff_t>(out.size()),
            window.end(), window.begin());
  std::copy(out.begin(), out.end(), window.end() - static_cast<std::ptrdiff_t>(out.size()));
}

/// The serial part of the build: threads the true 32 KiB window and the
/// stream position through the cells in order and records the index
/// entries. Appending a cell costs O(window), whatever its size.
class Stitcher {
 public:
  explicit Stitcher(std::uint64_t data_begin)
      : window_(kWindowSize, 0), next_(kWindowSize), cur_bit_(8 * data_begin) {}

  std::uint64_t cur_bit() const { return cur_bit_; }
  bool eos() const { return eos_; }
  bool at_stream_start() const { return uncomp_pos_ == 0; }
  /// The true window before the next cell (zero-filled at stream start).
  ByteSpan window() const { return ByteSpan(window_.data(), window_.size()); }
  /// The predecessor's run already decoded past this cell's end.
  bool eaten(const ChunkTask& t) const { return cur_bit_ >= 8 * t.next_grid_byte; }
  /// A speculative decode started where the stream arrived, or at a
  /// start that decodes the same (ChunkTask::found_last).
  bool hit(const ChunkTask& t) const {
    if (!t.ok) return false;
    if (t.byte_mode) return true;
    return t.found_bit <= cur_bit_ && cur_bit_ <= t.found_last && !at_stream_start();
  }

  /// Appends a run whose output is known as bytes.
  void append_bytes(std::uint64_t end_bit, ChunkStatus status,
                    std::size_t members, ByteSpan out) {
    if (!out.empty()) {
      obs::StageScope stage("stitch", "ingest", ingest_obs().stitch_us);
      add_chunk(end_bit, out.size());
      roll_window(window_, out);
    }
    advance(end_bit, status, members, out.size());
  }

  /// Appends a marker cell. Only its last 32 KiB is patched here — that
  /// is the successor's window; the rest is patched on the pool.
  void append_tokens(const ChunkTask& t, std::span<const std::uint16_t> tokens) {
    if (!tokens.empty()) {
      obs::StageScope stage("stitch", "ingest", ingest_obs().stitch_us);
      add_chunk(t.end_bit, tokens.size());
      const std::size_t take = std::min(tokens.size(), kWindowSize);
      const std::size_t keep = kWindowSize - take;
      std::copy(window_.end() - static_cast<std::ptrdiff_t>(keep), window_.end(),
                next_.begin());
      patch_markers(tokens.last(take), window(),
                    MutableByteSpan(next_.data() + keep, take));
      std::swap(window_, next_);
    }
    advance(t.end_bit, t.status, t.members.size(), tokens.size());
  }

  std::vector<GzipChunk> chunks;
  Bytes windows;  // concatenated start windows
  std::uint64_t num_members = 0;
  std::uint64_t uncomp_pos() const { return uncomp_pos_; }

 private:
  void add_chunk(std::uint64_t end_bit, std::uint64_t size) {
    GzipChunk c;
    c.start_bit = cur_bit_;
    c.end_bit = end_bit;
    c.uncomp_offset = uncomp_pos_;
    c.uncomp_size = size;
    c.window_offset = windows.size();
    if (!at_stream_start()) {
      c.window_bytes = static_cast<std::uint32_t>(kWindowSize);
      windows.insert(windows.end(), window_.begin(), window_.end());
    }
    chunks.push_back(c);
    ingest_obs().chunks_indexed.inc();
    ingest_obs().bytes_indexed.add(size);
  }

  void advance(std::uint64_t end_bit, ChunkStatus status, std::size_t members,
               std::uint64_t size) {
    uncomp_pos_ += size;
    cur_bit_ = end_bit;
    eos_ = status == ChunkStatus::kEndOfStream;
    num_members += members;
  }

  Bytes window_;  // rolling last 32 KiB of output
  Bytes next_;    // spare buffer the marker path builds the next window in
  std::uint64_t cur_bit_;
  std::uint64_t uncomp_pos_ = 0;
  bool eos_ = false;
};

/// Decodes the rest of cell `t` from the stitch position with the true
/// window in hand, one run of at most `max_output` bytes (plus one
/// block) at a time, and appends each run: afterwards the stitch sits
/// at or past the cell's end, or at the end of the stream.
void finish_in_order(serve::ByteSource& source, std::uint64_t source_size,
                     std::uint64_t max_output, Stitcher& st, ChunkTask& t,
                     WorkerScratch& ws) {
  while (!st.eos() && !st.eaten(t)) {
    obs::StageScope stage("fallback", "ingest", ingest_obs().fallback_us);
    const ByteSpan win = st.at_stream_start() ? ByteSpan() : st.window();
    ByteRun run = decode_byte_run(source, source_size, st.cur_bit(),
                                  t.next_grid_byte, max_output, win, ws);
    RunCheck& check = t.more.emplace_back();
    check.segments = byte_segment_crcs(run.out, run.members);
    st.append_bytes(run.end_bit, run.status, run.members.size(), run.out);
    check.members = std::move(run.members);
  }
}

/// The speculative build as a bounded pipeline on the pool. Every
/// participant runs participate(), which picks the most urgent work
/// available:
///   1. stitch the next cell in order, once it is decoded (serial: one
///      participant at a time, O(window) per cell);
///   2. patch a stitched marker cell against its start window and
///      checksum it;
///   3. decode the next cell (boundary scan + marker decode), if one of
///      the slots is free.
/// A slot holds one cell's token stream and start window from its
/// decode until its patch, so the slot count bounds the token streams
/// alive at once; its buffers are reused by later cells. There are no
/// barriers: a participant only waits when every remaining job is held
/// by another participant.
class SpeculativeBuild {
 public:
  SpeculativeBuild(serve::ByteSource& source, std::uint64_t source_size,
                   std::uint64_t max_output, std::vector<ChunkTask>& cells,
                   Stitcher& stitch, std::size_t slots)
      : source_(source),
        source_size_(source_size),
        max_output_(max_output),
        cells_(cells),
        stitch_(stitch),
        slots_(slots),
        decoded_(cells.size(), 0),
        slot_of_(cells.size(), 0) {
    for (std::size_t s = slots; s > 0; --s) free_slots_.push_back(s - 1);
  }

  /// One participant's loop. Returns when no work is left, or after
  /// another participant failed; rethrows this participant's failure.
  void participate(WorkerScratch& ws) EXCLUDES(mu_) {
    while (true) {
      const Job job = claim();
      if (job.kind == Kind::kDone) return;
      bool patch = false;
      try {
        patch = run(job, ws);
      } catch (...) {
        {
          util::MutexLock lock(mu_);
          failed_ = true;
        }
        cv_.notify_all();
        throw;
      }
      complete(job, patch);
    }
  }

 private:
  enum class Kind { kWait, kStitch, kPatch, kDecode, kDone };
  struct Job {
    Kind kind = Kind::kWait;
    std::size_t cell = 0;
    std::size_t slot = 0;
  };
  struct Slot {
    std::vector<std::uint16_t> tokens;
    Bytes window = Bytes(kWindowSize);  // the cell's true start window
  };

  Job claim() EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    while (true) {
      const Job job = next_job();
      if (job.kind != Kind::kWait) return job;
      cv_.wait(mu_);
    }
  }

  Job next_job() REQUIRES(mu_) {
    const std::size_t n = cells_.size();
    if (failed_) return {Kind::kDone};
    if (!stitching_ && next_stitch_ < n && decoded_[next_stitch_] != 0) {
      stitching_ = true;
      return {Kind::kStitch, next_stitch_, slot_of_[next_stitch_]};
    }
    if (!patch_queue_.empty()) {
      const std::size_t cell = patch_queue_.front();
      patch_queue_.pop_front();
      return {Kind::kPatch, cell, slot_of_[cell]};
    }
    if (next_stitch_ == n) return {Kind::kDone};
    if (next_decode_ < n && !free_slots_.empty()) {
      const std::size_t slot = free_slots_.back();
      free_slots_.pop_back();
      slot_of_[next_decode_] = slot;
      return {Kind::kDecode, next_decode_++, slot};
    }
    return {Kind::kWait};
  }

  /// Runs a claimed job outside the lock. For a stitch, returns whether
  /// the cell still needs its patch+CRC job.
  bool run(const Job& job, WorkerScratch& ws) {
    ChunkTask& t = cells_[job.cell];
    Slot& slot = slots_[job.slot];
    switch (job.kind) {
      case Kind::kDecode:
        if (t.byte_mode) {
          run_byte_task(source_, source_size_, max_output_, t, ws);
        } else {
          run_marker_task(source_, source_size_, max_output_, t, slot.tokens, ws);
        }
        ingest_obs().boundary_candidates.add(t.stats.candidates);
        ingest_obs().boundary_bits_scanned.add(t.stats.bits_scanned);
        return false;
      case Kind::kStitch:
        return stitch(t, slot, ws);
      case Kind::kPatch: {
        obs::StageScope stage("patch_crc", "ingest", ingest_obs().patch_crc_us);
        t.segments = patch_segment_crcs(slot.tokens, slot.window, t.members, ws.piece);
        return false;
      }
      case Kind::kWait:
      case Kind::kDone:
        break;
    }
    return false;
  }

  bool stitch(ChunkTask& t, Slot& slot, WorkerScratch& ws) {
    if (stitch_.eaten(t)) {
      t.members.clear();  // speculation past the real run: not stream data
      return false;
    }
    bool patch = false;
    if (!stitch_.hit(t)) {
      // Speculation missed (no boundary, or a boundary the stream did
      // not actually stop at): the in-order runs below decode the cell.
      ingest_obs().chunk_fallbacks.inc();
      t.members.clear();
    } else if (t.byte_mode) {
      stitch_.append_bytes(t.end_bit, t.status, t.members.size(), t.bytes);
      t.bytes = Bytes();
    } else if (slot.tokens.empty()) {
      t.segments = byte_segment_crcs(ByteSpan(), t.members);
      stitch_.append_tokens(t, slot.tokens);
    } else {
      const ByteSpan window = stitch_.window();
      std::copy(window.begin(), window.end(), slot.window.begin());
      stitch_.append_tokens(t, slot.tokens);
      patch = true;
    }
    // A hit that stopped at the output cap leaves the cell's rest here.
    finish_in_order(source_, source_size_, max_output_, stitch_, t, ws);
    return patch;
  }

  void complete(const Job& job, bool patch) EXCLUDES(mu_) {
    {
      util::MutexLock lock(mu_);
      switch (job.kind) {
        case Kind::kDecode:
          decoded_[job.cell] = 1;
          break;
        case Kind::kStitch:
          stitching_ = false;
          // Past the end of the stream every remaining cell is eaten.
          next_stitch_ = stitch_.eos() ? cells_.size() : job.cell + 1;
          if (patch) {
            patch_queue_.push_back(job.cell);
          } else {
            free_slots_.push_back(job.slot);
          }
          break;
        case Kind::kPatch:
          free_slots_.push_back(job.slot);
          break;
        case Kind::kWait:
        case Kind::kDone:
          break;
      }
    }
    cv_.notify_all();
  }

  serve::ByteSource& source_;
  const std::uint64_t source_size_;
  const std::uint64_t max_output_;  // output cap of one run
  // Cells, slots and the stitcher are handed between participants by
  // claim() and complete(), never used by two at once.
  std::vector<ChunkTask>& cells_;
  Stitcher& stitch_;
  std::vector<Slot> slots_;

  util::Mutex mu_;
  util::CondVar cv_;
  std::vector<char> decoded_ GUARDED_BY(mu_);
  std::vector<std::size_t> slot_of_ GUARDED_BY(mu_);
  std::vector<std::size_t> free_slots_ GUARDED_BY(mu_);
  std::deque<std::size_t> patch_queue_ GUARDED_BY(mu_);
  std::size_t next_decode_ GUARDED_BY(mu_) = 0;
  std::size_t next_stitch_ GUARDED_BY(mu_) = 0;
  bool stitching_ GUARDED_BY(mu_) = false;
  bool failed_ GUARDED_BY(mu_) = false;
};

}  // namespace

GzipIndex GzipIndex::build(serve::ByteSource& source,
                           const GzipIndexOptions& options) {
  ingest_obs().index_builds.inc();

  GzipIndex idx;
  idx.source_size_ = source.size();
  const std::uint64_t S = idx.source_size_;

  serve::SourceReader reader(source);
  const GzipMemberHeader first = parse_member_header(reader);
  check_format(S >= first.header_bytes + kGzipTrailerBytes,
               "gzip: stream too short for a member");
  const std::uint64_t data_begin = first.header_bytes;

  const std::uint64_t chunk_comp = std::max<std::uint64_t>(options.chunk_size, 4096);
  const std::uint64_t max_output = kChunkOutputPerPitch * chunk_comp;
  const std::size_t n =
      static_cast<std::size_t>(div_ceil(S - data_begin, chunk_comp));
  const std::size_t par =
      options.pool != nullptr ? options.pool->parallelism() : 1;

  std::vector<ChunkTask> cells(n);
  for (std::size_t i = 0; i < n; ++i) {
    ChunkTask& t = cells[i];
    t.grid_byte = data_begin + i * chunk_comp;
    t.next_grid_byte = std::min(S, t.grid_byte + chunk_comp);
    if (i == 0) {
      t.byte_mode = true;
      t.start_bit = 8 * data_begin;
    }
  }

  Stitcher st(data_begin);
  if (par > 1 && n > 1) {
    // Twice the parallelism in slots keeps every participant busy while
    // bounding the token streams held in memory at once.
    SpeculativeBuild pipeline(source, S, max_output, cells, st, std::min(n, 2 * par));
    std::vector<WorkerScratch> scratch(par);
    options.pool->parallel_for_worker(par, [&](std::size_t worker, std::size_t) {
      pipeline.participate(scratch[worker]);
    });
  } else {
    // Pure sequential: every cell is decoded in order with the window
    // always known — no markers, no scan, and no speculation to miss.
    WorkerScratch ws;
    for (ChunkTask& t : cells) {
      if (st.eos()) break;
      finish_in_order(source, S, max_output, st, t, ws);
    }
  }

  check_corrupt(st.eos(), "gzip: stream ended without a final member trailer");
  verify_members_and_checksum_chunks(cells, st.chunks);
  idx.chunks_ = std::move(st.chunks);
  idx.windows_ = std::move(st.windows);
  idx.num_members_ = st.num_members;
  idx.total_uncompressed_ = st.uncomp_pos();
  return idx;
}

std::size_t GzipIndex::chunk_containing(std::uint64_t offset) const {
  check(offset < total_uncompressed_, "gzip: offset past end of stream");
  const auto it = std::upper_bound(
      chunks_.begin(), chunks_.end(), offset,
      [](std::uint64_t off, const GzipChunk& c) { return off < c.uncomp_offset; });
  return static_cast<std::size_t>(it - chunks_.begin()) - 1;
}

Bytes GzipIndex::serialize() const {
  Bytes out;
  put_u32le(out, kGzipIndexMagic);
  out.push_back(kGzipIndexVersion);
  put_varint(out, source_size_);
  put_varint(out, total_uncompressed_);
  put_varint(out, num_members_);
  put_varint(out, chunks_.size());
  for (const GzipChunk& c : chunks_) {
    put_varint(out, c.start_bit);
    put_varint(out, c.end_bit);
    put_varint(out, c.uncomp_offset);
    put_varint(out, c.uncomp_size);
    put_u32le(out, c.crc32);
    put_varint(out, c.window_bytes);
    const ByteSpan w(windows_.data() + c.window_offset, c.window_bytes);
    out.insert(out.end(), w.begin(), w.end());
  }
  return out;
}

GzipIndex GzipIndex::deserialize(ByteSpan sidecar) {
  util::SpanReader reader(sidecar);
  check_format(reader.read_u32le() == kGzipIndexMagic,
               "gzip: bad seek-index magic");
  const unsigned version = reader.read_u8();
  if (version != kGzipIndexVersion) {
    throw FormatError("gzip: seek-index version " + std::to_string(version) +
                      " is not supported (this build reads version " +
                      std::to_string(kGzipIndexVersion) + "; rebuild the sidecar)");
  }
  GzipIndex idx;
  idx.source_size_ = reader.read_varint();
  idx.total_uncompressed_ = reader.read_varint();
  idx.num_members_ = reader.read_varint();
  const std::uint64_t count = reader.read_varint();
  // A chunk costs >= 9 sidecar bytes, so an implausible count fails
  // fast instead of reserving unbounded memory.
  check_format(count <= sidecar.size(), "gzip: implausible chunk count");
  std::uint64_t expect_offset = 0;
  std::uint64_t prev_end_bit = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    GzipChunk c;
    c.start_bit = reader.read_varint();
    c.end_bit = reader.read_varint();
    c.uncomp_offset = reader.read_varint();
    c.uncomp_size = reader.read_varint();
    c.crc32 = reader.read_u32le();
    const std::uint64_t wbytes = reader.read_varint();
    check_format(c.start_bit >= prev_end_bit && c.start_bit < c.end_bit &&
                     c.end_bit <= 8 * idx.source_size_,
                 "gzip: seek-index chunk extents out of order");
    check_format(c.uncomp_offset == expect_offset && c.uncomp_size > 0,
                 "gzip: seek-index offsets not contiguous");
    // The writer's invariant: only the stream-start chunk has no
    // window, and every other window is exactly 32 KiB. decode_block
    // relies on this to resolve any in-window distance.
    check_format(wbytes == (c.uncomp_offset == 0 ? 0 : kWindowSize),
                 "gzip: seek-index window size invalid");
    c.window_bytes = static_cast<std::uint32_t>(wbytes);
    c.window_offset = idx.windows_.size();
    if (wbytes != 0) {
      idx.windows_.resize(idx.windows_.size() + static_cast<std::size_t>(wbytes));
      reader.read_exact(MutableByteSpan(
          idx.windows_.data() + c.window_offset, static_cast<std::size_t>(wbytes)));
    }
    expect_offset += c.uncomp_size;
    prev_end_bit = c.end_bit;
    idx.chunks_.push_back(c);
  }
  check_format(expect_offset == idx.total_uncompressed_,
               "gzip: seek-index total size mismatch");
  check_format(reader.at_end(), "gzip: trailing bytes in seek index");
  ingest_obs().sidecar_loads.inc();
  return idx;
}

void GzipIndex::save(const std::string& path) const {
  const Bytes data = serialize();
  std::ofstream out(path, std::ios::binary);
  check_io(out.good(), "gzip: cannot open sidecar for writing");
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  check_io(out.good(), "gzip: sidecar write failed");
}

}  // namespace gompresso::ingest
