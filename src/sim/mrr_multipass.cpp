#include "sim/mrr_multipass.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "sim/warp_lz77.hpp"
#include "simt/warp.hpp"

namespace gompresso::sim {
namespace {

using core::copy_backref;
using core::PendingRef;

/// True when [s, e) intersects the write region of any reference in
/// `pending`. The list must be ordered by write position with disjoint
/// intervals (pass 0 appends in walk order), so a single
/// partition_point suffices.
bool intersects_pending(std::span<const PendingRef> pending, std::uint64_t s,
                        std::uint64_t e) {
  if (s >= e) return false;
  const auto it = std::partition_point(
      pending.begin(), pending.end(),
      [&](const PendingRef& r) { return r.write_pos + r.len <= s; });
  return it != pending.end() && it->write_pos < e;
}

}  // namespace

void resolve_block_multipass(std::span<const lz77::Sequence> sequences,
                             const std::uint8_t* literals, std::size_t literal_count,
                             MutableByteSpan out, MultiPassStats* stats,
                             MultiPassWorkspace* workspace) {
  // Pass 0 ("first kernel"): the warp walks its groups without ever
  // stalling — all 32 lanes of a group run in lock step, write their
  // literal strings, copy the back-references that are resolvable right
  // now, and spill the rest to the (global-memory) worklist. A lane may
  // rely on: output below the gap-free watermark, literal intervals of
  // its *own* group (written in this group's literal phase), and its own
  // forward copy. It may NOT rely on same-group back-reference output
  // (the lanes are concurrent) nor on anything above the first spilled
  // reference (tracking finer-grained availability is the "increased
  // complexity" the paper cites against this variant).
  MultiPassWorkspace local;
  MultiPassWorkspace& ws = workspace ? *workspace : local;
  std::vector<PendingRef>& pending = ws.pending;
  pending.clear();
  std::uint64_t lit_cursor = 0;
  std::uint64_t out_cursor = 0;

  const std::size_t n = sequences.size();
  for (std::size_t first = 0; first < n; first += simt::kWarpSize) {
    const unsigned lanes =
        static_cast<unsigned>(std::min<std::size_t>(simt::kWarpSize, n - first));
    const std::uint64_t group_base = out_cursor;

    // Literal phase: all lanes write their literal strings.
    simt::LaneArray<std::uint64_t> own_start{};
    simt::LaneArray<std::uint64_t> write_pos{};
    for (unsigned lane = 0; lane < lanes; ++lane) {
      const lz77::Sequence& seq = sequences[first + lane];
      check(lit_cursor + seq.literal_len <= literal_count,
            "multipass: literal buffer overrun");
      check(out_cursor + seq.literal_len + seq.match_len <= out.size(),
            "multipass: output overrun");
      std::memcpy(out.data() + out_cursor, literals + lit_cursor, seq.literal_len);
      lit_cursor += seq.literal_len;
      own_start[lane] = out_cursor;
      out_cursor += seq.literal_len;
      write_pos[lane] = out_cursor;
      out_cursor += seq.match_len;
    }

    // Back-reference phase: copy or spill, in lock step. A source
    // interval below the group base is available unless it intersects
    // the output interval of a still-pending earlier reference ("the
    // increased complexity of tracking when a dependency can be
    // resolved"); the in-group part may rely on the group's literal
    // intervals and the lane's own forward copy. Only earlier-group refs
    // live in `pending` during the capped below-base probe — this
    // group's spills land at or above group_base, which the probe never
    // reaches.
    for (unsigned lane = 0; lane < lanes; ++lane) {
      const lz77::Sequence& seq = sequences[first + lane];
      if (seq.match_len == 0) continue;
      check(seq.match_dist >= 1 && seq.match_dist <= write_pos[lane],
            "multipass: back-reference past start of output");
      const std::uint64_t src = write_pos[lane] - seq.match_dist;
      const std::uint64_t src_end = src + seq.match_len;
      const bool resolvable =
          !intersects_pending(pending, src, std::min(src_end, group_base)) &&
          (src_end <= group_base || src >= own_start[lane] ||
           group_part_available(own_start.data(), write_pos.data(), lanes, lane,
                                group_base, src, src_end));
      if (resolvable) {
        copy_backref(out.data(), write_pos[lane], src, seq.match_len);
      } else {
        pending.push_back({write_pos[lane], seq.match_dist, seq.match_len});
      }
    }
  }
  check(out_cursor == out.size(), "multipass: output size mismatch");
  check(lit_cursor == literal_count, "multipass: literal count mismatch");

  if (stats) {
    stats->passes = 1;
    stats->spilled_refs += pending.size();
    stats->spilled_bytes += pending.size() * sizeof(PendingRef);
  }

  // Later passes ("separate kernels"): sweep the worklist in write-
  // position order. Pass 0 appended refs in that order, so during the
  // sweep everything below the first still-unresolved reference is
  // gap-free; unlike MRR, chains are not capped at the warp width and a
  // block-long chain resolves link by link within the sweep. On the GPU
  // this is where the variant loses: every link is a device-memory
  // round-trip (read the spilled ref, check availability, write the
  // copy) instead of a register-resident warp round — the "overhead of
  // writing to and reading from memory, together with the increased
  // complexity of tracking when a dependency can be resolved" that made
  // the paper reject the design. MultiPassStats carries the traffic so
  // the K40 model can charge it.
  std::vector<PendingRef>& next = ws.next;
  while (!pending.empty()) {
    if (stats) ++stats->passes;
    next.clear();
    std::size_t resolved = 0;
    for (const auto& ref : pending) {
      // Gap-free watermark: the first reference that is still unresolved
      // after this sweep's progress so far.
      const std::uint64_t watermark = next.empty() ? ref.write_pos : next.front().write_pos;
      const std::uint64_t src = ref.write_pos - ref.dist;
      const std::uint64_t src_end = src + ref.len;
      // (The lane's literal start is no longer known after the spill —
      // tracking complexity — so the self-overlap clause degrades to
      // write_pos <= watermark.)
      const bool resolvable = src_end <= watermark || ref.write_pos <= watermark;
      if (resolvable) {
        copy_backref(out.data(), ref.write_pos, src, ref.len);
        ++resolved;
      } else {
        next.push_back(ref);
      }
    }
    check(resolved != 0, "multipass: no progress");
    if (stats) {
      stats->spilled_bytes += next.size() * sizeof(PendingRef);  // re-read + re-write
    }
    pending.swap(next);
  }
}

}  // namespace gompresso::sim
