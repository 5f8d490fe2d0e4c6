// Thread-parallel phase-2 LZ77 resolution with a completed-watermark
// handoff.
//
// The paper's decompression is two-phase: parallel token decode (phase
// 1), then back-reference resolution (phase 2). Phase 1 fans a single
// block's sub-block lanes across the ThreadPool for every codec; this
// module does the same for phase 2, the last serial stage of the decode
// path:
//
//   * Plan. The sequence list is partitioned into shards and each
//     shard's literal/output base is computed with an exclusive prefix
//     sum over per-shard totals. Totals are validated against the block
//     bounds before any byte is written.
//   * Phase A (fully concurrent). Every shard walks its sequences in
//     order like lz77::resolve_span: literal string, then back-reference.
//     A reference is copied immediately when its source is resolved
//     *within the shard* — at or above the shard base and not overlapping
//     the write region of an already-deferred reference. Anything else —
//     in particular any source reaching below the shard base — is
//     deferred to the shard's pending list, ordered by write position.
//   * Phase B (watermark handoff). A shard spins briefly and then parks
//     on an atomic high-water mark that earlier shards publish as they
//     complete; once the watermark reaches the shard's base (every byte
//     below it is resolved), one ordered sweep of the pending list
//     resolves the deferrals — each reference's source is fully written
//     by the time the sweep reaches it — and the shard publishes the
//     watermark for its successor.
//
// A deferred reference's output would normally poison every later
// reader of that region and cascade through the shard; phase A instead
// chases dirty reads byte-wise through the pending list's redirection
// map down to their origin, so only references whose *transitive*
// origin crosses the shard base defer. Literals, shard-local matches
// and chase-resolvable chains — the bulk of phase 2 — run fully
// concurrently; the phase-B sweeps of truly cross-shard chains are
// plain ordered memcpys that pipeline down the watermark chain, which
// is the graceful-degradation path for deeply nested streams. Output
// bytes are identical to lz77::resolve_span.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "core/resolve_common.hpp"
#include "lz77/sequence.hpp"
#include "util/common.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace gompresso::core {

/// Shard sizing knobs. The defaults balance scheduling slack (a few
/// shards per pool participant) against deferral rate — a shard's first
/// chain-depth x window bytes of back-references tend to cross its base,
/// so small shards defer a larger fraction of their work to phase B.
/// Tests shrink min_sequences_per_shard to force many shards on small
/// inputs.
struct ResolveShardConfig {
  std::uint32_t min_sequences_per_shard = 16384;
  std::uint32_t shards_per_participant = 4;       // load-balance target
};

/// One shard of the plan: a sequence range plus the exclusive prefix
/// sums locating its literals and output.
struct ResolveShard {
  std::uint64_t seq_begin = 0;
  std::uint64_t seq_end = 0;
  std::uint64_t lit_base = 0;  // literal offset of seq_begin's string
  std::uint64_t out_base = 0;  // output offset where the shard starts
  std::uint64_t out_end = 0;   // output offset just past the shard
};

/// Cross-shard synchronisation state: the completed watermark (every
/// output byte below it is resolved) and the contiguous-completion
/// cursor it is derived from. Heap-held by the plan so DecodeScratch
/// stays movable; allocated once in reserve(), reused for every block.
struct ResolveSync {
  /// Watermark publishes with release under `mutex`, waiters load/park
  /// with acquire — the bytes below the published offset happen-before
  /// any read gated on it.
  std::atomic<std::uint64_t> watermark{0};
  util::Mutex mutex;
  std::size_t next_shard GUARDED_BY(mutex) = 0;  // first incomplete shard
  bool aborted GUARDED_BY(mutex) = false;  // a shard failed; watermark pinned
};

/// The arena-resident shard plan: grows to the high-water shard count of
/// the blocks it has seen and then serves every block allocation-free
/// (per-shard pending lists and dirty bitmaps stay warm across blocks).
struct ResolvePlan {
  std::vector<ResolveShard> shards;
  std::vector<std::vector<PendingRef>> shard_pending;  // phase-B worklists
  /// Per-shard dirty bitmap, one bit per 64 output bytes: set when a
  /// deferred reference's write region touches the granule. The
  /// L1-resident bitmap answers the hot-path "is this source clean?"
  /// probe without binary-searching the (large, cold) pending list; a
  /// set bit is conservative — the budgeted chase consults the precise
  /// list.
  std::vector<std::vector<std::uint64_t>> shard_dirty;
  std::vector<std::uint8_t> shard_done;          // guarded by sync->mutex
  std::unique_ptr<ResolveSync> sync;

  /// Pre-sizes the per-shard tables for up to `max_shards` shards and
  /// allocates the sync block, so steady-state blocks plan without
  /// touching the heap.
  void reserve(std::size_t max_shards) {
    shards.reserve(max_shards);
    shard_pending.reserve(max_shards);
    shard_dirty.reserve(max_shards);
    shard_done.reserve(max_shards);
    if (!sync) sync = std::make_unique<ResolveSync>();
  }
};

/// Resolves all sequences of one block into `out` (sized to exactly the
/// block's uncompressed size) using the sharded concurrent resolver.
/// Returns false — leaving `out` untouched — when the block is too small
/// to shard or the pool has no spawned workers; the caller falls back to
/// lz77::resolve_span.
///
/// On success `deferrals` (optional) accumulates the number of
/// back-references that crossed to phase B. Throws gompresso::Error on
/// malformed sequences, exactly like resolve_span; a failing shard
/// aborts the others' waits before the error is rethrown, so no thread
/// is left parked.
bool resolve_block_sharded(std::span<const lz77::Sequence> sequences,
                           const std::uint8_t* literals, std::size_t literal_count,
                           MutableByteSpan out, ResolvePlan& plan, ThreadPool& pool,
                           std::uint64_t* deferrals = nullptr,
                           const ResolveShardConfig& config = {});

}  // namespace gompresso::core
