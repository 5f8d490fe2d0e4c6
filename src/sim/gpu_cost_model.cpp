#include "sim/gpu_cost_model.hpp"

#include <algorithm>

namespace gompresso::sim {

double K40Model::seconds(const RunProfile& profile) const {
  const double u = static_cast<double>(profile.uncompressed_bytes);
  const double c = static_cast<double>(profile.compressed_bytes);

  double lz_ns_per_byte = de_cost_ns_per_byte;
  const double extra_rounds = std::max(0.0, profile.avg_rounds_per_group - 1.0);
  switch (profile.strategy) {
    case Strategy::kDependencyFree:
      break;  // single round by construction
    case Strategy::kMultiRound:
      lz_ns_per_byte += mrr_round_cost_ns_per_byte * extra_rounds;
      break;
    case Strategy::kMultiPass:
      lz_ns_per_byte += mrr_round_cost_ns_per_byte * extra_rounds;
      lz_ns_per_byte *= multipass_overhead;
      break;  // worklist traffic + tracking added below
    case Strategy::kSequentialCopy:
      // For SC the metrics count one "round" per back-reference copy; the
      // serialization cost scales with that count.
      lz_ns_per_byte += sc_ref_cost_ns_per_byte * extra_rounds;
      break;
  }

  double core_ns = u * lz_ns_per_byte;
  if (profile.codec == Codec::kBit) {
    core_ns += c * huffman_cost_ns_per_compressed_byte;
  }
  if (profile.strategy == Strategy::kMultiPass) {
    core_ns += static_cast<double>(profile.spilled_refs) * multipass_tracking_ns_per_ref;
    core_ns += static_cast<double>(profile.spilled_bytes) / mem_bandwidth_gb_per_s;
  }
  // Device-memory bandwidth floor: every byte of input and output crosses
  // the memory system at least once.
  const double mem_floor_ns = (u + c) / mem_bandwidth_gb_per_s;
  double seconds = std::max(core_ns, mem_floor_ns) * 1e-9;

  if (profile.pcie_in) seconds += pcie.seconds(profile.compressed_bytes);
  if (profile.pcie_out) seconds += pcie.seconds(profile.uncompressed_bytes);
  return seconds;
}

double K40Model::throughput_gb_per_s(const RunProfile& profile) const {
  const double s = seconds(profile);
  if (s <= 0.0) return 0.0;
  return static_cast<double>(profile.uncompressed_bytes) / 1e9 / s;
}

}  // namespace gompresso::sim
