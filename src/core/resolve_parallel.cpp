#include "core/resolve_parallel.hpp"

#include <thread>

#include "obs/trace.hpp"

namespace gompresso::core {
namespace {

// Sharded-resolve metrics: blocks that actually fanned out, and how
// many back-references each run pushed to the watermark-gated phase B.
struct ResolveObs {
  obs::Counter sharded_blocks =
      obs::registry().counter("resolve.sharded_blocks", "blocks");
  obs::Counter deferrals =
      obs::registry().counter("resolve.deferrals", "refs");
};

ResolveObs& resolve_obs() {
  static ResolveObs instance;
  return instance;
}

/// Watermark value published when a shard fails: above every valid
/// output offset, so parked waiters wake, observe the abort flag via the
/// sentinel, and unwind instead of reading bytes no one will write.
constexpr std::uint64_t kAbortedWatermark = ~std::uint64_t{0};

/// Blocks until the completed watermark covers `target`. Spins briefly
/// (the common DE case resolves within a few groups of the predecessor's
/// tail), then parks on the atomic. Throws when the run was aborted by a
/// failing shard.
void await_watermark(ResolveSync& sync, std::uint64_t target) {
  // pairs-with: the release stores in publish_completion/publish_abort —
  // an acquired watermark >= target makes every byte below it visible.
  std::uint64_t seen = sync.watermark.load(std::memory_order_acquire);
  for (int spin = 0; seen < target && spin < 256; ++spin) {
    if ((spin & 31) == 31) std::this_thread::yield();
    // pairs-with: the release stores in publish_completion/publish_abort.
    seen = sync.watermark.load(std::memory_order_acquire);
  }
  while (seen < target) {
    // pairs-with: the release stores in publish_completion/publish_abort.
    sync.watermark.wait(seen, std::memory_order_acquire);
    // pairs-with: the release stores in publish_completion/publish_abort.
    seen = sync.watermark.load(std::memory_order_acquire);
  }
  check(seen != kAbortedWatermark, "resolve: shard resolution aborted");
}

/// Marks shard `s` complete and advances the watermark over the
/// contiguous completed prefix. The walk runs under the mutex, so the
/// done flags and the cursor stay consistent no matter which shard
/// finishes last; the release store transfers the completed shards'
/// bytes to any waiter that acquires the new watermark.
void publish_completion(ResolvePlan& plan, std::size_t s, std::uint64_t out_size) {
  ResolveSync& sync = *plan.sync;
  {
    util::MutexLock lock(sync.mutex);
    if (sync.aborted) return;  // keep the abort sentinel pinned
    plan.shard_done[s] = 1;
    const std::size_t n_shards = plan.shards.size();
    while (sync.next_shard < n_shards && plan.shard_done[sync.next_shard]) {
      ++sync.next_shard;
    }
    const std::uint64_t wm =
        sync.next_shard < n_shards ? plan.shards[sync.next_shard].out_base : out_size;
    // publishes: every output byte below wm (the contiguous completed
    // shards' writes); pairs-with the acquire loads in await_watermark.
    sync.watermark.store(wm, std::memory_order_release);
  }
  sync.watermark.notify_all();
}

/// Pins the watermark at the abort sentinel so every parked shard wakes
/// and unwinds. The failing shard's own exception propagates through the
/// pool; waiters throw the generic abort error, which the pool discards
/// if the real error was captured first.
void publish_abort(ResolveSync& sync) {
  {
    util::MutexLock lock(sync.mutex);
    sync.aborted = true;
    // publishes: the abort flag (via the sentinel value itself);
    // pairs-with the acquire loads in await_watermark, whose check()
    // turns the sentinel into the unwind path.
    sync.watermark.store(kAbortedWatermark, std::memory_order_release);
  }
  sync.watermark.notify_all();
}

/// Dirty-bitmap granularity: one bit per 2^kDirtyShift output bytes,
/// relative to the shard base.
constexpr unsigned kDirtyShift = 6;

inline void mark_dirty(std::vector<std::uint64_t>& dirty, std::uint64_t base,
                       std::uint64_t begin, std::uint64_t end) {
  for (std::uint64_t g = (begin - base) >> kDirtyShift;
       g <= (end - 1 - base) >> kDirtyShift; ++g) {
    dirty[g >> 6] |= std::uint64_t{1} << (g & 63);
  }
}

/// True when no granule of [begin, end) is dirty. begin >= base and
/// begin < end are the caller's invariants.
inline bool range_clean(const std::vector<std::uint64_t>& dirty, std::uint64_t base,
                        std::uint64_t begin, std::uint64_t end) {
  for (std::uint64_t g = (begin - base) >> kDirtyShift;
       g <= (end - 1 - base) >> kDirtyShift; ++g) {
    if (dirty[g >> 6] & (std::uint64_t{1} << (g & 63))) return false;
  }
  return true;
}

/// Chase-copy for a back-reference whose source interval touches pending
/// (deferred) output: every source byte is chased through the pending
/// list's redirection map — a byte inside a deferred reference's output
/// region has the same value as the corresponding byte of that
/// reference's own source — until it reaches either a clean in-shard
/// byte (copy it now) or the shard base (the whole reference truly
/// depends on an earlier shard: give up, the caller defers it). This is
/// what keeps DE-style streams concurrent: a deferred region only
/// poisons readers whose *transitive* origin crosses the shard base,
/// instead of cascading through the whole shard.
///
/// `pending` holds the shard's deferrals so far, ordered by write
/// position with disjoint intervals; each hop strictly decreases the
/// position, so the walk terminates. Chasing is charged against the
/// shard-wide `budget` (hops remaining): streams whose chains mostly
/// ground inside the shard spend almost nothing, while deep-chain
/// streams — where nearly every chase would cross the base after dozens
/// of hops — drain it quickly and fall back to cheap wholesale deferral
/// instead of paying a failed deep walk per reference.
bool chase_copy(MutableByteSpan out, std::span<const PendingRef> pending,
                const std::vector<std::uint64_t>& dirty, std::uint64_t shard_base,
                std::uint64_t write_pos, std::uint64_t src, std::uint32_t len,
                std::uint64_t& budget) {
  for (std::uint32_t i = 0; i < len; ++i) {
    std::uint64_t p = src + i;
    // p >= write_pos reads the reference's own forward output, written
    // earlier in this loop; the chase below leaves it alone (a shard's
    // own reference is never in `pending`).
    for (int hops = 0;; ++hops) {
      if (p < shard_base) return false;
      // Bitmap prefilter: a clean granule means no pending ref covers p,
      // so the (cold) precise list is only probed for dirty granules —
      // and only while budget remains; once it is spent, dirty bytes
      // defer without touching the list at all.
      if (range_clean(dirty, shard_base, p, p + 1)) break;
      if (hops >= 16 || budget == 0) return false;  // deep chain: defer
      --budget;  // charged per probe, hit or miss
      const auto it = std::partition_point(
          pending.begin(), pending.end(),
          [&](const PendingRef& r) { return r.write_pos + r.len <= p; });
      if (it == pending.end() || it->write_pos > p) break;  // clean byte
      p = (it->write_pos - it->dist) + (p - it->write_pos);
    }
    out[write_pos + i] = out[p];
  }
  return true;
}

/// Phase A: walk the shard's sequences in order, write every literal
/// string, copy each back-reference whose source is resolved within the
/// shard, and defer the rest (ordered by write position) to `pending`.
void resolve_shard_immediate(std::span<const lz77::Sequence> sequences,
                             const ResolveShard& shard, const std::uint8_t* literals,
                             MutableByteSpan out, std::vector<PendingRef>& pending,
                             std::vector<std::uint64_t>& dirty) {
  std::uint64_t lit_cursor = shard.lit_base;
  std::uint64_t out_cursor = shard.out_base;
  // Chase-work allowance: about a hop per sequence keeps phase A linear
  // even when every chain is adversarially deep; the failure counter
  // below cuts chasing off early when the stream clearly will not pay.
  std::uint64_t chase_budget = shard.seq_end - shard.seq_begin;
  std::uint32_t chase_fails = 0;
  for (std::uint64_t i = shard.seq_begin; i < shard.seq_end; ++i) {
    const lz77::Sequence& seq = sequences[i];
    // Plan-stage totals bound the cursors, so these writes stay inside
    // the shard's slice.
    if (seq.literal_len != 0) {
      std::memcpy(out.data() + out_cursor, literals + lit_cursor, seq.literal_len);
      lit_cursor += seq.literal_len;
      out_cursor += seq.literal_len;
    }
    if (seq.match_len == 0) continue;
    const std::uint64_t write_pos = out_cursor;
    out_cursor += seq.match_len;
    check(seq.match_dist >= 1 && seq.match_dist <= write_pos,
          "resolve: back-reference past start of block");
    const std::uint64_t src = write_pos - seq.match_dist;
    // The shard's walk is sequential, so every in-shard byte below the
    // write position is already written except the deferred regions:
    // bitmap-clean sources copy immediately, dirty ones are chased
    // through the redirection map, and only references whose origin
    // (conservatively, by granule) crosses the shard base defer.
    if (src >= shard.out_base &&
        range_clean(dirty, shard.out_base, src,
                    std::min<std::uint64_t>(src + seq.match_len, write_pos))) {
      copy_backref(out.data(), write_pos, src, seq.match_len);
    } else if (chase_budget == 0 ||
               !chase_copy(out, pending, dirty, shard.out_base, write_pos, src,
                           seq.match_len, chase_budget)) {
      pending.push_back({write_pos, seq.match_dist, seq.match_len});
      mark_dirty(dirty, shard.out_base, write_pos, write_pos + seq.match_len);
      // Adaptive cut: a stream whose chases keep failing has deep
      // chains everywhere — stop paying for probes that end in
      // deferral anyway and fall back to bitmap-only deferral.
      if (++chase_fails > 64) chase_budget = 0;
    }
  }
  check(out_cursor == shard.out_end, "resolve: shard output size mismatch");
}

/// Phase B: once every byte below the shard base is resolved, sweep the
/// deferred references in write order — the pending list is ordered and
/// everything below a reference's write position (earlier shards, the
/// shard's phase-A output, earlier pending entries) is resolved by the
/// time the sweep reaches it, so one pass suffices.
void resolve_shard_deferred(const ResolveShard& shard,
                            std::span<const PendingRef> pending, MutableByteSpan out,
                            ResolveSync& sync) {
  await_watermark(sync, shard.out_base);
  for (const PendingRef& ref : pending) {
    copy_backref(out.data(), ref.write_pos, ref.write_pos - ref.dist, ref.len);
  }
}

}  // namespace

bool resolve_block_sharded(std::span<const lz77::Sequence> sequences,
                           const std::uint8_t* literals, std::size_t literal_count,
                           MutableByteSpan out, ResolvePlan& plan, ThreadPool& pool,
                           std::uint64_t* deferrals, const ResolveShardConfig& config) {
  const std::uint64_t n = sequences.size();
  const std::size_t participants = pool.parallelism();
  if (participants <= 1 || n == 0) return false;

  // Shard size: a few shards per participant for load balance, floored
  // so tiny blocks do not pay the handoff overhead.
  const std::uint64_t per =
      std::max<std::uint64_t>(config.min_sequences_per_shard,
                              (n + participants * config.shards_per_participant - 1) /
                                  (participants * config.shards_per_participant));
  const std::size_t n_shards = static_cast<std::size_t>((n + per - 1) / per);
  if (n_shards < 2) return false;

  // Grow-only plan tables: shrinking would free the warm per-shard
  // buffers, so past-high-water slots simply sit idle.
  plan.shards.resize(n_shards);
  if (plan.shard_pending.size() < n_shards) plan.shard_pending.resize(n_shards);
  if (plan.shard_dirty.size() < n_shards) plan.shard_dirty.resize(n_shards);
  if (plan.shard_done.size() < n_shards) plan.shard_done.resize(n_shards);
  if (!plan.sync) plan.sync = std::make_unique<ResolveSync>();

  // Plan: per-shard totals in parallel (stashed in the base fields),
  // then one serial exclusive scan turns them into bases.
  pool.parallel_for(n_shards, [&](std::size_t s) {
    ResolveShard& shard = plan.shards[s];
    shard.seq_begin = s * per;
    shard.seq_end = std::min<std::uint64_t>(n, shard.seq_begin + per);
    std::uint64_t lit_total = 0;
    std::uint64_t out_total = 0;
    for (std::uint64_t i = shard.seq_begin; i < shard.seq_end; ++i) {
      const lz77::Sequence& seq = sequences[i];
      lit_total += seq.literal_len;
      out_total += static_cast<std::uint64_t>(seq.literal_len) + seq.match_len;
    }
    shard.lit_base = lit_total;  // scanned into a base below
    shard.out_base = out_total;
  });
  std::uint64_t lit_run = 0;
  std::uint64_t out_run = 0;
  for (std::size_t s = 0; s < n_shards; ++s) {
    ResolveShard& shard = plan.shards[s];
    const std::uint64_t lit_total = shard.lit_base;
    const std::uint64_t out_total = shard.out_base;
    shard.lit_base = lit_run;
    shard.out_base = out_run;
    lit_run += lit_total;
    out_run += out_total;
    shard.out_end = out_run;
  }
  // Validate the block bounds up front, before any thread writes a byte.
  check(out_run == out.size(), "resolve: output size mismatch");
  check(lit_run == literal_count, "resolve: literal count mismatch");

  ResolveSync& sync = *plan.sync;
  sync.watermark.store(0, std::memory_order_relaxed);
  {
    // No shard threads exist yet; the lock is for the analysis, not for
    // a real race — it keeps the guarded reset visible to TSA.
    util::MutexLock lock(sync.mutex);
    sync.next_shard = 0;
    sync.aborted = false;
  }
  for (std::size_t s = 0; s < n_shards; ++s) {
    plan.shard_done[s] = 0;
    plan.shard_pending[s].clear();
    const std::uint64_t span = plan.shards[s].out_end - plan.shards[s].out_base;
    plan.shard_dirty[s].assign(((span >> kDirtyShift) >> 6) + 1, 0);
  }

  pool.parallel_for(n_shards, [&](std::size_t s) {
    try {
      const ResolveShard& shard = plan.shards[s];
      {
        // Phase A: immediate copies + dirty-bitmap chase, no cross-shard
        // waits. Phase B below blocks on the completed watermark, so the
        // two spans expose exactly where a shard's time went.
        obs::TraceSpan span("resolve_shardA", "resolve");
        resolve_shard_immediate(sequences, shard, literals, out,
                                plan.shard_pending[s], plan.shard_dirty[s]);
      }
      if (!plan.shard_pending[s].empty()) {
        obs::TraceSpan span("resolve_shardB", "resolve");
        resolve_shard_deferred(shard, plan.shard_pending[s], out, sync);
      }
      publish_completion(plan, s, out.size());
    } catch (...) {
      publish_abort(sync);
      throw;
    }
  });

  std::uint64_t deferred = 0;
  for (std::size_t s = 0; s < n_shards; ++s) deferred += plan.shard_pending[s].size();
  if (deferrals) *deferrals += deferred;
  resolve_obs().sharded_blocks.add(1);
  resolve_obs().deferrals.add(deferred);
  return true;
}

}  // namespace gompresso::core
