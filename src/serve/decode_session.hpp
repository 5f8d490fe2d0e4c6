// Streaming decode sessions: bounded-memory incremental decompression.
//
// A DecodeSession opens a container (native GMPZ/GMPS, or a foreign
// format like gzip) through a ByteSource and serves
// read()/seek()/read_at() with memory bounded by the decode window and
// cache — independent of file size:
//
//   peak pooled bytes <= (max_inflight_blocks + cache capacity + 1)
//                        x (block_size + max compressed block size)
//
// Internally a ContainerBackend (serve/backend.hpp) maps uncompressed
// offsets to compressed block extents and decodes one block at a time.
// Readahead follows the access pattern (the rapidgzip pattern). A read
// that continues a stream — it demands block 0, or a block whose
// predecessor a reader has already been served from — submits the next
// window of max_inflight_blocks blocks before blocking on the first, so
// decode overlaps delivery for read() scans and forward read_at()
// sweeps. Any other read decodes only the block it demands: random
// access pays for no neighbours that nobody reads. Decoded blocks land
// in pooled buffers tracked by an LRU cache, so random-access re-reads
// are cache hits. Backpressure is the in-flight cap itself: no
// lookahead is scheduled while max_inflight_blocks decodes are pending,
// and the pool's bounded task queue backstops even that.
//
// Thread safety: read_at() may be called from many threads concurrently
// (each concurrent reader adds at most one demanded block beyond the
// window to the bound above). read()/seek()/tell() share one cursor
// serialized by a dedicated lock held across the whole read, so
// concurrent read() calls deliver disjoint consecutive ranges; which
// thread gets which range is whatever order the scheduler picks.
#pragma once

#include <atomic>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/backend.hpp"
#include "serve/byte_source.hpp"
#include "util/buffer_pool.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace gompresso::serve {

/// Retry discipline for transient (IoError) failures inside a decode
/// task: capped exponential backoff with seeded multiplicative jitter —
/// attempt k starts from min(base_backoff_us << (k-1), max_backoff_us)
/// and scales it by a factor drawn deterministically from
/// (jitter_seed, salt, attempt) in [1-jitter, 1+jitter). Seeding keeps
/// fault plans replayable (same seed, same sleeps) while the salt —
/// callers pass the block index — de-synchronizes retry storms when
/// many tasks hit the same fault burst at once. The serve daemon needs
/// no more than that: its connections share one session, which runs
/// one decode per block, so they cannot retry one block in lockstep.
/// Permanent errors (CorruptionError, FormatError) are never retried;
/// classification is by type, never by message string.
struct RetryPolicy {
  /// Total attempts per block (1 = no retry).
  std::size_t max_attempts = 3;
  std::uint64_t base_backoff_us = 500;
  std::uint64_t max_backoff_us = 50 * 1000;
  /// Cumulative backoff budget per block; once sleeping would exceed it
  /// the transient error surfaces even with attempts left. 0 = no cap.
  std::uint64_t deadline_us = 0;
  /// Jitter amplitude as a fraction of the exponential backoff: the
  /// sleep is drawn from [backoff*(1-jitter), backoff*(1+jitter)).
  /// 0 disables jitter (exact ladder); clamped to [0, 1].
  double jitter = 0.25;
  /// Seed for the jitter draw. Fixed default so runs replay; vary it to
  /// de-correlate independent retry streams.
  std::uint64_t jitter_seed = 0x676F6D707A6A6974ull;  // "gompzjit"

  /// Backoff before retry attempt `attempt` (2-based: the sleep between
  /// attempt-1 and attempt), without jitter.
  std::uint64_t backoff_us(std::size_t attempt) const {
    const unsigned shift = attempt >= 2 ? static_cast<unsigned>(attempt - 2) : 0;
    const std::uint64_t uncapped =
        shift >= 63 ? max_backoff_us : base_backoff_us << shift;
    return std::min(uncapped, max_backoff_us);
  }

  /// backoff_us(attempt) scaled by the deterministic jitter factor for
  /// (jitter_seed, salt, attempt).
  std::uint64_t jittered_backoff_us(std::size_t attempt,
                                    std::uint64_t salt) const;
};

struct SessionOptions {
  /// Sliding window of blocks decoded ahead of a streaming reader
  /// (including the block being read); a read that does not continue a
  /// stream decodes only its own block. With spawned pool workers this
  /// is the prefetch pipeline depth; without them decode happens on the
  /// calling thread and the window is effectively 1.
  std::size_t max_inflight_blocks = 4;
  /// Decoded-block LRU capacity. Rounded up to max_inflight_blocks so
  /// the prefetch window can never thrash its own output.
  std::size_t cache_blocks = 8;
  /// Worker threads for the prefetch pipeline: 0 = shared default pool,
  /// 1 = decode inline on the calling thread, n = a private pool
  /// (resolve_pool, util/thread_pool.hpp).
  std::size_t num_threads = 0;
  /// Verify each block's CRC32. Read by gompresso::open() when it builds
  /// the native backend; a backend passed in directly carries its own.
  bool verify_checksums = true;
  /// Transient-failure retry discipline for source reads + block decode.
  RetryPolicy retry;
  /// Test seam: replaces the real backoff sleep. Called with the backoff
  /// in microseconds; null = std::this_thread::sleep_for. Must be
  /// callable from pool workers concurrently.
  std::function<void(std::uint64_t)> sleep_hook;
  /// Shared decode pool. When set it overrides num_threads entirely (the
  /// serve daemon passes its decode pool). Must outlive the session.
  /// nullptr = honor num_threads.
  ThreadPool* pool = nullptr;
  /// Shared buffer pool, the memory-bound witness of everything leased
  /// from it. Must outlive the session. nullptr = own pool.
  util::BufferPool* buffer_pool = nullptr;
};

/// One uncompressed range a damage-tolerant read could not reproduce
/// (zero-filled in the output instead).
struct DamagedExtent {
  std::uint64_t offset = 0;  // uncompressed
  std::uint64_t length = 0;
  std::size_t block = 0;     // seek-index block the damage lives in
  ErrorKind kind = ErrorKind::kCorruption;
  std::string message;
};

/// What a best-effort read or an archive scan could not recover.
struct DamageReport {
  std::vector<DamagedExtent> extents;
  bool clean() const { return extents.empty(); }
  std::uint64_t damaged_bytes() const {
    std::uint64_t total = 0;
    for (const DamagedExtent& e : extents) total += e.length;
    return total;
  }
};

/// Decode health of one block, tracked across the session's lifetime.
enum class BlockHealth : std::uint8_t {
  kUnknown = 0,  // never decoded
  kGood,         // decoded (and CRC-verified, if enabled) at least once
  kDamaged,      // failed with a permanent error — will not be retried
};

struct SessionStats {
  std::uint64_t blocks_decoded = 0;   // decode tasks completed
  std::uint64_t cache_hits = 0;       // reads served from an already-decoded block
  std::uint64_t demand_decodes = 0;   // blocks a reader demanded (and waited on)
  std::uint64_t prefetch_decodes = 0; // lookahead blocks decoded ahead of demand
  std::uint64_t decode_waits = 0;     // reader blocked on an in-flight block
  std::uint64_t decode_failures = 0;  // decode tasks that ended in an error
  std::uint64_t evictions = 0;        // decoded blocks dropped by the LRU
  std::uint64_t bytes_delivered = 0;
  std::uint64_t retries = 0;           // backoff retries after transient errors
  std::uint64_t transient_errors = 0;  // IoError observations (incl. retried-away)
  std::uint64_t permanent_errors = 0;  // corruption/format decode failures
  std::uint64_t degraded_reads = 0;    // damage-tolerant reads that zero-filled
  std::uint64_t bytes_zero_filled = 0; // bytes substituted for damaged data
  util::BufferPool::Stats pool;       // the memory-bound witness (bench_serve)
};

class DecodeSession {
 public:
  /// Opens `source` through `backend` — the one constructor every open
  /// path funnels into (gompresso::open() picks the backend by sniffing
  /// the source). Throws FormatError if the backend's block table was
  /// built from a source of a different size.
  DecodeSession(std::unique_ptr<ByteSource> source,
                std::shared_ptr<ContainerBackend> backend,
                SessionOptions options = {});

  /// Blocks until every in-flight prefetch task has finished.
  ~DecodeSession();

  DecodeSession(const DecodeSession&) = delete;
  DecodeSession& operator=(const DecodeSession&) = delete;

  /// Total uncompressed size.
  std::uint64_t size() const { return backend_->total_uncompressed(); }

  /// Sequential read at the session cursor; advances it. Returns the
  /// number of bytes produced — short only at end of data, 0 at or past
  /// the end. Prefetches the upcoming window.
  std::size_t read(MutableByteSpan dst) EXCLUDES(cursor_mutex_);

  /// Positional read, cursor untouched; same return convention. Decoded
  /// blocks stay in the LRU, so re-reads of warm ranges do not decode.
  std::size_t read_at(std::uint64_t offset, MutableByteSpan dst);

  /// Convenience: positional read returning the bytes (shorter than
  /// `length` only at end of data).
  Bytes read_bytes_at(std::uint64_t offset, std::size_t length);

  /// Best-effort positional read: like read_at(), but a block whose
  /// decode fails permanently (CorruptionError/FormatError — or an
  /// IoError that survived the whole RetryPolicy) is zero-filled
  /// instead of thrown, and the unrecoverable ranges are appended to
  /// `report` (when given). Every byte outside a damaged block is
  /// exact. Returns the same short-only-at-EOF count as read_at().
  std::size_t read_at_damage_tolerant(std::uint64_t offset, MutableByteSpan dst,
                                      DamageReport* report = nullptr);

  /// Scrubs the whole archive: decodes every block (damage-tolerantly,
  /// through the cache) and returns the ranges that cannot be served.
  /// This is `gomp verify`.
  DamageReport verify_archive();

  /// Decode health of block `b`, as observed so far (kUnknown until a
  /// read or scan touches the block).
  BlockHealth block_health(std::size_t b) const EXCLUDES(mutex_);

  /// Moves the sequential cursor. Offsets past the end are allowed;
  /// subsequent read() calls return 0 there.
  void seek(std::uint64_t offset) EXCLUDES(cursor_mutex_);
  std::uint64_t tell() const EXCLUDES(cursor_mutex_);

  /// Backend-neutral block table accessors.
  std::size_t num_blocks() const { return backend_->num_blocks(); }
  BackendBlock block_extent(std::size_t b) const { return backend_->block(b); }
  std::uint64_t compressed_end() const { return backend_->compressed_end(); }

  /// The container backend; backend().seek_index() is the native
  /// SeekIndex of a GMPZ/GMPS session (nullptr for foreign formats).
  const ContainerBackend& backend() const { return *backend_; }

  /// Coherent snapshot of the session's counters. Each field is an
  /// atomic relaxed load — no lock, so readers and decode tasks are
  /// never stalled by stats polling, and no counter can be observed
  /// mid-update (the old struct copy read fields one by one while tasks
  /// mutated them). Cross-field invariants settle once in-flight work
  /// quiesces. Every counter is also mirrored into the process-wide
  /// obs registry under `serve.*`.
  SessionStats stats() const;

 private:
  struct Slot {
    enum class State { kScheduled, kReady, kFailed };
    State state = State::kScheduled;
    util::PooledBuffer data;            // valid when kReady
    // Failure record, valid when kFailed (delivered to current waiters,
    // then dropped so a later read retries the block). A classified
    // failure is stored as (kind, message) and re-raised as a FRESH
    // exception per delivery — publishing one exception_ptr to many
    // readers makes concurrent rethrows share the object (libstdc++),
    // racing its destruction against virtual kind() calls. Only
    // unclassified exceptions (bad_alloc, logic_error) keep the
    // exception_ptr, at single-delivery fidelity.
    bool error_typed = false;
    ErrorKind error_kind = ErrorKind::kConfig;
    std::string error_what;
    std::exception_ptr error;           // unclassified failures only
    int waiters = 0;                    // readers blocked on or pinning this
                                        // block (eviction skips pinned slots)
    bool delivered = false;             // a reader has copied from it: a read
                                        // of its successor continues a stream
    std::list<std::uint64_t>::iterator lru_it{};  // valid when kReady
  };

  struct BlockDamage {
    ErrorKind kind = ErrorKind::kCorruption;
    std::string message;
  };

  /// SessionStats' counters as relaxed atomics: decode tasks and
  /// readers bump them lock-free, stats() loads them without mutex_.
  struct AtomicCounters {
    std::atomic<std::uint64_t> blocks_decoded{0};
    std::atomic<std::uint64_t> cache_hits{0};
    std::atomic<std::uint64_t> demand_decodes{0};
    std::atomic<std::uint64_t> prefetch_decodes{0};
    std::atomic<std::uint64_t> decode_waits{0};
    std::atomic<std::uint64_t> decode_failures{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> bytes_delivered{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> transient_errors{0};
    std::atomic<std::uint64_t> permanent_errors{0};
    std::atomic<std::uint64_t> degraded_reads{0};
    std::atomic<std::uint64_t> bytes_zero_filled{0};
  };

  void init();
  void backoff_sleep(std::uint64_t us);
  std::size_t read_impl(std::uint64_t offset, MutableByteSpan dst)
      EXCLUDES(mutex_);
  void fetch_into(std::uint64_t block, std::size_t begin, std::size_t len,
                  std::uint8_t* out) EXCLUDES(mutex_);
  void schedule_locked(std::uint64_t first, std::vector<std::uint64_t>& to_run)
      REQUIRES(mutex_);
  // Drops and reacquires `lock` (which guards mutex_) around the task
  // submissions. The analysis cannot follow a capability through a
  // reference parameter, so the definition opts out; callers are still
  // checked against the REQUIRES.
  void dispatch(util::MutexLock& lock, const std::vector<std::uint64_t>& to_run,
                std::uint64_t demanded) REQUIRES(mutex_);
  void decode_task(std::uint64_t block) EXCLUDES(mutex_);
  void evict_excess_locked() REQUIRES(mutex_);

  std::unique_ptr<ByteSource> source_;
  std::shared_ptr<ContainerBackend> backend_;
  SessionOptions options_;

  std::unique_ptr<ThreadPool> own_pool_;
  ThreadPool* pool_ = nullptr;  // nullptr = always decode inline
  bool async_ = false;          // pool_ has spawned workers
  std::size_t window_ = 1;      // effective max_inflight_blocks
  std::size_t cache_capacity_ = 0;

  util::BufferPool own_buffers_;
  util::BufferPool* buffers_ = &own_buffers_;  // options_.buffer_pool if set

  /// Serializes the sequential cursor (read/seek/tell). Always acquired
  /// before mutex_, never while holding it.
  mutable util::Mutex cursor_mutex_ ACQUIRED_BEFORE(mutex_);

  mutable util::Mutex mutex_;
  util::CondVar ready_cv_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Slot>> slots_
      GUARDED_BY(mutex_);
  std::list<std::uint64_t> lru_ GUARDED_BY(mutex_);  // ready, most recent first
  std::size_t inflight_ GUARDED_BY(mutex_) = 0;     // slots in kScheduled state
  std::size_t ready_count_ GUARDED_BY(mutex_) = 0;  // slots in kReady state
  std::uint64_t cursor_ GUARDED_BY(cursor_mutex_) = 0;
  AtomicCounters counters_;
  std::vector<BlockHealth> health_ GUARDED_BY(mutex_);  // per block
  std::unordered_map<std::uint64_t, BlockDamage> damage_
      GUARDED_BY(mutex_);  // kDamaged blocks
};

}  // namespace gompresso::serve
