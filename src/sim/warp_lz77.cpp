#include "sim/warp_lz77.hpp"

#include <algorithm>
#include <cstring>

#include "core/resolve_common.hpp"

namespace gompresso::sim {
namespace {

using core::copy_backref;
using simt::kWarpSize;
using simt::LaneArray;
using simt::LaneMask;

/// Per-group lane state, loaded once per 32-sequence group. The arrays
/// are deliberately left uninitialized — prepare_group fills lanes
/// [0, lanes) and every consumer iterates only the active lanes —
/// zeroing 1.2 KB per group was measurable in the block decode loop.
struct GroupState {
  LaneArray<std::uint32_t> literal_len;
  LaneArray<std::uint32_t> match_len;
  LaneArray<std::uint32_t> match_dist;
  LaneArray<std::uint64_t> literal_src;  // offset into the literal buffer
  LaneArray<std::uint64_t> out_start;    // output offset of the literal string
  LaneArray<std::uint64_t> write_pos;    // output offset of the back-reference
  unsigned lanes = 0;                    // active lanes (last group may be short)
  std::uint64_t group_out_base = 0;      // output offset where the group starts
  std::uint64_t group_out_end = 0;       // output offset just past the group
};

/// Step (a) + (b): load sequences, compute the two exclusive prefix sums,
/// and copy the literal strings of every active lane. The sums are plain
/// running totals here — lane-for-lane identical to the two 5-step
/// shfl_up scan networks the GPU executes (simt::exclusive_scan), which
/// is what the shuffle metric continues to count.
GroupState prepare_group(std::span<const lz77::Sequence> sequences, std::size_t first,
                         const std::uint8_t* literals, std::uint64_t literal_base,
                         std::uint64_t out_base, MutableByteSpan out,
                         simt::WarpMetrics* metrics) {
  GroupState g;
  g.lanes = static_cast<unsigned>(std::min<std::size_t>(kWarpSize, sequences.size() - first));
  g.group_out_base = out_base;

  std::uint64_t lit_run = 0;  // exclusive scan of literal lengths
  std::uint64_t out_run = 0;  // exclusive scan of literal + match lengths
  for (unsigned lane = 0; lane < g.lanes; ++lane) {
    const lz77::Sequence& s = sequences[first + lane];
    g.literal_len[lane] = s.literal_len;
    g.match_len[lane] = s.match_len;
    g.match_dist[lane] = s.match_dist;
    g.literal_src[lane] = literal_base + lit_run;
    g.out_start[lane] = out_base + out_run;
    g.write_pos[lane] = g.out_start[lane] + s.literal_len;
    lit_run += s.literal_len;
    out_run += static_cast<std::uint64_t>(s.literal_len) + s.match_len;
  }
  if (metrics) metrics->shuffles += 2 * 5;  // two 5-step shfl_up scans

  g.group_out_end = out_base + out_run;
  check(g.group_out_end <= out.size(), "warp_lz77: output overrun");

  // Copy the literal strings. On the GPU all lanes proceed concurrently;
  // there are no inter-lane dependencies in this phase.
  for (unsigned lane = 0; lane < g.lanes; ++lane) {
    if (g.literal_len[lane] == 0) continue;
    std::memcpy(out.data() + g.out_start[lane], literals + g.literal_src[lane],
                g.literal_len[lane]);
  }
  return g;
}

/// Validates one lane's back-reference bounds before any copy.
inline void check_backref(const GroupState& g, unsigned lane) {
  check(g.match_dist[lane] >= 1 && g.match_dist[lane] <= g.write_pos[lane],
        "warp_lz77: back-reference past start of output");
}

/// Strategy SC: back-references resolved strictly in lane order.
void resolve_group_sc(const GroupState& g, MutableByteSpan out) {
  for (unsigned lane = 0; lane < g.lanes; ++lane) {
    if (g.match_len[lane] == 0) continue;
    check_backref(g, lane);
    copy_backref(out.data(), g.write_pos[lane], g.write_pos[lane] - g.match_dist[lane],
                 g.match_len[lane]);
  }
}

/// Strategy MRR (Fig. 5): iterative resolution driven by warp votes and a
/// high-water mark broadcast.
void resolve_group_mrr(const GroupState& g, MutableByteSpan out,
                       simt::WarpMetrics* metrics) {
  LaneArray<bool> pending{};
  LaneMask active = 0;
  for (unsigned lane = 0; lane < g.lanes; ++lane) {
    pending[lane] = g.match_len[lane] != 0;
    active |= 1u << lane;
    if (pending[lane]) check_backref(g, lane);
  }

  std::uint64_t hwm = g.group_out_base;  // all previous groups fully resolved
  std::uint64_t round = 0;
  LaneMask votes = simt::ballot(pending, active);
  if (metrics) ++metrics->ballots;

  while (votes != 0) {
    ++round;
    std::uint64_t bytes_this_round = 0;
    std::uint64_t refs_this_round = 0;
    for (unsigned lane = 0; lane < g.lanes; ++lane) {
      if (!pending[lane]) continue;
      const std::uint64_t src = g.write_pos[lane] - g.match_dist[lane];
      const std::uint64_t src_end = src + g.match_len[lane];
      const std::uint64_t own = g.out_start[lane];
      const bool resolvable = src_end <= hwm || src >= own || own <= hwm;
      if (resolvable) {
        copy_backref(out.data(), g.write_pos[lane], src, g.match_len[lane]);
        pending[lane] = false;  // Fig. 5 line 6
        bytes_this_round += g.match_len[lane];
        ++refs_this_round;
      }
    }
    // Fig. 5 lines 8-10: vote, find the last gap-free writer, broadcast
    // the new HWM.
    votes = simt::ballot(pending, active);
    if (metrics) ++metrics->ballots;
    const unsigned prefix = simt::completed_prefix(votes);
    if (prefix >= g.lanes) {
      hwm = g.group_out_end;
    } else {
      // The first pending lane's literals are written; output is gap-free
      // up to its back-reference write position.
      hwm = std::max(hwm, g.write_pos[prefix]);
    }
    if (metrics) {
      ++metrics->shuffles;  // the HWM broadcast
      metrics->record_round(round, bytes_this_round, refs_this_round);
    }
    check(refs_this_round != 0 || votes == 0, "warp_lz77: MRR made no progress");
  }
  if (metrics) {
    ++metrics->groups;
    metrics->rounds += round;
    metrics->max_rounds_in_group = std::max(metrics->max_rounds_in_group, round);
  }
}

/// True when every byte of [src, src_end) is safe to read in a single
/// round for `lane`: below the group base (earlier groups are fully
/// resolved), inside some lane's literal interval (all literals are
/// written before the back-reference phase), or at/after the lane's own
/// literal start (forward self-copy).
bool de_source_available(const GroupState& g, unsigned lane, std::uint64_t src,
                         std::uint64_t src_end) {
  return group_part_available(g.out_start.data(), g.write_pos.data(), g.lanes, lane,
                              g.group_out_base, src, src_end);
}

/// Strategy DE: the stream was compressed with dependency elimination, so
/// no back-reference depends on another back-reference of the same warp
/// group; a single round suffices and no voting is needed.
void resolve_group_de(const GroupState& g, MutableByteSpan out,
                      simt::WarpMetrics* metrics) {
  std::uint64_t bytes = 0;
  std::uint64_t refs = 0;
  for (unsigned lane = 0; lane < g.lanes; ++lane) {
    if (g.match_len[lane] == 0) continue;
    check_backref(g, lane);
    const std::uint64_t src = g.write_pos[lane] - g.match_dist[lane];
    const std::uint64_t src_end = src + g.match_len[lane];
    // DE invariant (Fig. 7): the source may touch earlier groups' output
    // and this group's literal regions, but never another lane's
    // back-reference output.
    check(src_end <= g.group_out_base || src >= g.out_start[lane] ||
              de_source_available(g, lane, src, src_end),
          "warp_lz77: DE strategy on a stream with intra-group dependencies");
    copy_backref(out.data(), g.write_pos[lane], src, g.match_len[lane]);
    bytes += g.match_len[lane];
    ++refs;
  }
  if (metrics) {
    ++metrics->groups;
    ++metrics->rounds;
    metrics->record_round(1, bytes, refs);
    metrics->max_rounds_in_group = std::max<std::uint64_t>(metrics->max_rounds_in_group, 1);
  }
}

}  // namespace

void resolve_block(std::span<const lz77::Sequence> sequences,
                   const std::uint8_t* literals, std::size_t literal_count,
                   MutableByteSpan out, Strategy strategy, simt::WarpMetrics* metrics) {
  std::uint64_t literal_base = 0;
  std::uint64_t out_base = 0;
  for (std::size_t first = 0; first < sequences.size(); first += kWarpSize) {
    GroupState g = prepare_group(sequences, first, literals, literal_base, out_base,
                                 out, metrics);
    // Literal source bounds check (all lanes read below literal_count).
    const unsigned last = g.lanes - 1;
    check(g.literal_src[last] + g.literal_len[last] <= literal_count,
          "warp_lz77: literal buffer overrun");
    switch (strategy) {
      case Strategy::kSequentialCopy:
        resolve_group_sc(g, out);
        if (metrics) {
          ++metrics->groups;
          // SC serialises the copies: one "round" per active back-reference.
          for (unsigned lane = 0; lane < g.lanes; ++lane) {
            if (g.match_len[lane] != 0) ++metrics->rounds;
          }
        }
        break;
      case Strategy::kMultiRound:
        resolve_group_mrr(g, out, metrics);
        break;
      case Strategy::kDependencyFree:
        resolve_group_de(g, out, metrics);
        break;
      case Strategy::kMultiPass:
        throw Error("warp_lz77: kMultiPass is handled by mrr_multipass");
    }
    literal_base = g.literal_src[last] + g.literal_len[last];
    out_base = g.group_out_end;
  }
  check(out_base == out.size(), "warp_lz77: output size mismatch");
  check(literal_base == literal_count, "warp_lz77: literal count mismatch");
}

}  // namespace gompresso::sim
