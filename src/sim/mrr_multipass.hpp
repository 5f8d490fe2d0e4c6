// Alternative multi-pass MRR variant (paper §V-A, last paragraph).
//
// "We also implemented an alternative variant of MRR that wrote nested
// back-references to device memory during each round. Each round is
// performed in a separate kernel. Later passes read unresolved
// back-references and all threads in a warp can be doing useful work.
// Because of the overhead of writing to and reading from memory, together
// with the increased complexity of tracking when a dependency can be
// resolved, the alternative variant did not improve the performance of
// MRR."
//
// In this variant the warp never stalls on a nested reference: pass 0
// writes all literals and every immediately-resolvable back-reference,
// spilling unresolved ones to a (global-memory) worklist. Subsequent
// passes — separate kernels on the GPU — sweep the worklist, using the
// block's gap-free watermark (the minimum write position of any pending
// reference) to decide resolvability. MultiPassStats counts passes and
// the spilled bytes, the overhead that made the paper reject this design.
#pragma once

#include <span>
#include <vector>

#include "core/resolve_common.hpp"
#include "lz77/sequence.hpp"
#include "util/common.hpp"

namespace gompresso::sim {

/// Costs of the spill-based variant.
struct MultiPassStats {
  std::uint64_t passes = 0;
  std::uint64_t spilled_refs = 0;    // refs written to the worklist
  std::uint64_t spilled_bytes = 0;   // worklist traffic (16 B per ref per pass)

  void merge(const MultiPassStats& other) {
    passes = std::max(passes, other.passes);
    spilled_refs += other.spilled_refs;
    spilled_bytes += other.spilled_bytes;
  }
};

/// Reusable worklist storage (the variant's "device memory"). A caller
/// that resolves many blocks keeps one workspace so the steady-state
/// block loop allocates nothing; the semantics are unchanged.
struct MultiPassWorkspace {
  std::vector<core::PendingRef> pending;
  std::vector<core::PendingRef> next;
};

/// Resolves all sequences of one block into `out` using the multi-pass
/// spill variant. Semantics are identical to resolve_block with MRR.
/// `workspace` (optional) supplies reusable worklist storage.
void resolve_block_multipass(std::span<const lz77::Sequence> sequences,
                             const std::uint8_t* literals, std::size_t literal_count,
                             MutableByteSpan out, MultiPassStats* stats = nullptr,
                             MultiPassWorkspace* workspace = nullptr);

}  // namespace gompresso::sim
