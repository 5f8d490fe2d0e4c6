// Analytic Tesla K40 decompression cost model.
//
// No GPU exists in this environment, so cross-platform figures (9a, 12,
// 13, 14) convert *counted work* — bytes moved, warp resolution rounds,
// compressed bits decoded — into modeled K40 time. The constants are
// calibrated once against the paper's reported operating points (§V-A
// Fig. 9a: Gompresso/Byte DE ≈ 20 GB/s, MRR ≈ 10 GB/s at ~3 rounds, DE ≥
// 5× SC; Fig. 13: Gompresso/Bit ≈ 2× parallel zlib) and then held fixed
// across all experiments; every benchmark also reports the measured
// wall-clock time of the simulated-warp execution on this machine, so the
// model is an annotation, never a replacement for a measurement.
//
// Model structure:
//   t_lz    = U * (c_de + c_round * (avg_rounds - 1))          [LZ77 stage]
//   t_huff  = C * c_huff                    [Gompresso/Bit decode stage]
//   t_core  = max(t_lz + t_huff, (U + C) / BW_mem)     [bandwidth floor]
//   t_total = t_core + pcie_in + pcie_out
// where U/C are uncompressed/compressed byte counts. SC uses a smaller
// per-round constant (its serialised copies skip the vote/broadcast
// overhead that an MRR round pays).
#pragma once

#include <cstdint>

#include "core/options.hpp"
#include "sim/warp_lz77.hpp"
#include "sim/pcie_model.hpp"

namespace gompresso::sim {

/// Work counts describing one decompression run (from sim::SimResult).
struct RunProfile {
  std::uint64_t uncompressed_bytes = 0;
  std::uint64_t compressed_bytes = 0;
  Codec codec = Codec::kByte;
  Strategy strategy = Strategy::kDependencyFree;
  double avg_rounds_per_group = 1.0;  // WarpMetrics::avg_rounds_per_group()
  std::uint64_t spilled_refs = 0;     // kMultiPass: worklist entries
  std::uint64_t spilled_bytes = 0;    // kMultiPass: worklist traffic
  bool pcie_in = false;   // transfer compressed input host -> device
  bool pcie_out = false;  // transfer uncompressed output device -> host
};

struct K40Model {
  double mem_bandwidth_gb_per_s = 192.0;  // effective with ECC on (288 peak)
  double de_cost_ns_per_byte = 0.05;      // 1-round LZ stage: 20 GB/s
  double mrr_round_cost_ns_per_byte = 0.025;  // each extra MRR round
  double sc_ref_cost_ns_per_byte = 0.010;     // each serialized SC copy
  double multipass_overhead = 1.15;  // variant's extra kernel launches (§V-A)
  /// Per-spilled-reference cost of the multi-pass variant: one worklist
  /// write plus per-pass re-reads and the resolvability bookkeeping the
  /// paper calls "the increased complexity of tracking when a dependency
  /// can be resolved".
  double multipass_tracking_ns_per_ref = 4.0;
  /// Huffman decode stage cost. Calibrated so Gompresso/Bit lands at the
  /// paper's Fig. 13 anchor of ~2x parallel zlib on the Wikipedia set
  /// (the paper's power figures are consistent with exactly that ratio:
  /// a 17 % energy saving at 380 W vs 230 W implies a 2.0x speed-up).
  double huffman_cost_ns_per_compressed_byte = 0.16;  // ~6.3 GB/s decode
  PcieModel pcie;

  /// Modeled end-to-end decompression time.
  double seconds(const RunProfile& profile) const;

  /// Modeled decompression bandwidth (uncompressed bytes / second).
  double throughput_gb_per_s(const RunProfile& profile) const;
};

/// Scales a measured single-thread CPU throughput to the paper's CPU
/// platform (2x E5-2620v2, 24 hardware threads on 12 physical cores).
/// Used to place the §V-D baselines on the modeled cross-platform axis.
struct CpuScalingModel {
  /// Effective parallel speed-up of 24 HW threads on 12 cores for
  /// memory-heavy decompression (hyper-threading yields well under 2x).
  double effective_parallelism = 14.0;

  double scale_throughput_gb_per_s(double single_thread_gb_per_s) const {
    return single_thread_gb_per_s * effective_parallelism;
  }
};

}  // namespace gompresso::sim
