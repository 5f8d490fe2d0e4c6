// Whole-file decompression through the warp simulator.
//
// The figure reproductions (bench_fig*, strategy_tour, nesting_explorer)
// need the paper's per-strategy execution counts — warp rounds, bytes
// resolved per round, multi-pass spills — which production decode does
// not produce: it resolves every block with one kernel. sim::decompress
// decodes a file's tokens with the production codecs
// (core::decode_block_tokens) and then resolves each block with the
// requested strategy's warp algorithm, block-parallel on the shared
// default pool, and checks every block's CRC32.
#pragma once

#include "sim/mrr_multipass.hpp"
#include "sim/warp_lz77.hpp"
#include "simt/warp.hpp"
#include "util/common.hpp"

namespace gompresso::sim {

/// The decoded bytes plus the simulator's execution counts.
struct SimResult {
  Bytes data;
  simt::WarpMetrics metrics;  // SC, MRR and DE
  MultiPassStats multipass;   // kMultiPass only
};

/// Decompresses a Gompresso file, resolving LZ77 with `strategy`.
/// kDependencyFree on a file compressed without dependency elimination
/// throws, since such streams may contain intra-warp dependencies.
SimResult decompress(ByteSpan file, Strategy strategy);

}  // namespace gompresso::sim
