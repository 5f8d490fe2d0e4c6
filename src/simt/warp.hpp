// SIMT warp execution substrate.
//
// The paper's decompression kernels are warp-synchronous programs: 32
// threads execute in lock step and exchange data with the `ballot` and
// `shfl` instructions (§II-B). No GPU is available in this environment, so
// this module simulates the warp execution model on the CPU: a lane's
// state lives in a LaneArray slot, code between warp-synchronous points
// runs as a plain loop over the active lanes, and the warp primitives
// operate across the arrays with CUDA-equivalent semantics.
//
// Because MRR/DE are *algorithms over the warp model* — their round
// counts and dependency behaviour are independent of the silicon — the
// simulator reproduces the paper's Fig. 9b/9c measurements directly from
// the executed rounds. WarpMetrics records them.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/common.hpp"

namespace gompresso::simt {

inline constexpr unsigned kWarpSize = 32;

/// One value per lane of the warp.
template <typename T>
using LaneArray = std::array<T, kWarpSize>;

/// Bitmask of lanes; bit i corresponds to lane i (CUDA convention: the
/// ballot result is b31*2^31 + ... + b1*2 + b0, paper §II-B).
using LaneMask = std::uint32_t;
inline constexpr LaneMask kFullMask = 0xFFFFFFFFu;

/// Warp-wide vote: returns the mask of active lanes whose predicate is
/// true. Inactive lanes contribute 0 (CUDA __ballot_sync semantics).
inline LaneMask ballot(const LaneArray<bool>& predicate, LaneMask active = kFullMask) {
  LaneMask mask = 0;
  for (unsigned lane = 0; lane < kWarpSize; ++lane) {
    if ((active >> lane) & 1u) {
      mask |= static_cast<LaneMask>(predicate[lane]) << lane;
    }
  }
  return mask;
}

/// Broadcast: every lane receives lane `src_lane`'s value (CUDA __shfl).
template <typename T>
inline T shfl(const LaneArray<T>& values, unsigned src_lane) {
  return values[src_lane % kWarpSize];
}

/// Number of lanes in the completed prefix of a pending-mask: the index of
/// the lowest set bit, i.e. the first still-pending lane. The paper's
/// Fig. 5 line 9 computes this with count_leading_zero_bits under its
/// MSB-first bitmap rendering; with CUDA's LSB-first lane order it is a
/// count of trailing zeros.
inline unsigned completed_prefix(LaneMask pending) {
  if (pending == 0) return kWarpSize;
  return static_cast<unsigned>(std::countr_zero(pending));
}

/// Exclusive prefix sum across lanes using the log2(32)-step shfl_up
/// network ("We use NVIDIA's shuffle instructions to efficiently compute
/// this prefix sum without memory accesses", §III-B). Lane i receives the
/// sum of values[0..i).
template <typename T>
inline LaneArray<T> exclusive_scan(const LaneArray<T>& values) {
  // Inclusive Hillis-Steele scan via shfl_up, then shift right by one.
  LaneArray<T> inclusive = values;
  for (unsigned delta = 1; delta < kWarpSize; delta <<= 1) {
    LaneArray<T> shifted{};
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
      // shfl_up(value, delta): lane receives lane-delta's value.
      shifted[lane] = lane >= delta ? inclusive[lane - delta] : T{};
    }
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
      if (lane >= delta) inclusive[lane] = inclusive[lane] + shifted[lane];
    }
  }
  LaneArray<T> exclusive{};
  for (unsigned lane = kWarpSize; lane-- > 1;) exclusive[lane] = inclusive[lane - 1];
  exclusive[0] = T{};
  return exclusive;
}

/// Warp-wide sum (reduction) of per-lane values.
template <typename T>
inline T reduce_sum(const LaneArray<T>& values, LaneMask active = kFullMask) {
  T sum{};
  for (unsigned lane = 0; lane < kWarpSize; ++lane) {
    if ((active >> lane) & 1u) sum = sum + values[lane];
  }
  return sum;
}

/// Execution metrics accumulated by the warp-parallel decompressors.
/// Fig. 9b plots bytes_per_round; Fig. 9c depends on total rounds.
struct WarpMetrics {
  std::uint64_t groups = 0;        // 32-sequence warp groups processed
  std::uint64_t rounds = 0;        // total MRR iterations across groups
  std::uint64_t ballots = 0;       // warp votes executed
  std::uint64_t shuffles = 0;      // broadcast/shfl operations executed
  std::uint64_t max_rounds_in_group = 0;
  std::vector<std::uint64_t> bytes_per_round;  // [r] = bytes resolved in round r+1
  std::vector<std::uint64_t> refs_per_round;   // [r] = back-refs resolved in round r+1

  /// Records `bytes`/`refs` resolved during round `round` (1-based).
  void record_round(std::uint64_t round, std::uint64_t bytes, std::uint64_t refs);

  /// Accumulates another metrics object (per-block metrics -> total).
  void merge(const WarpMetrics& other);

  /// Average number of resolution rounds per warp group.
  double avg_rounds_per_group() const {
    return groups == 0 ? 0.0 : static_cast<double>(rounds) / static_cast<double>(groups);
  }
};

}  // namespace gompresso::simt
