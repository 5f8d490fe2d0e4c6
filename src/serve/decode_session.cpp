#include "serve/decode_session.hpp"

#include <chrono>
#include <cstring>
#include <thread>

#include "obs/trace.hpp"

namespace gompresso::serve {
namespace {

// Serve-plane metrics: every SessionStats counter mirrored as a named
// process-wide metric, plus the per-read latency histogram the serve
// daemon's p50/p99 will report from.
struct ServeObs {
  obs::Counter reads = obs::registry().counter("serve.reads", "reads");
  obs::Histogram read_latency_us =
      obs::registry().histogram("serve.read_latency_us", "us");
  obs::Counter blocks_decoded =
      obs::registry().counter("serve.blocks_decoded", "blocks");
  obs::Counter cache_hits = obs::registry().counter("serve.cache_hits", "reads");
  obs::Counter demand_decodes =
      obs::registry().counter("serve.demand_decodes", "blocks");
  obs::Counter prefetch_decodes =
      obs::registry().counter("serve.prefetch_decodes", "blocks");
  obs::Counter decode_waits =
      obs::registry().counter("serve.decode_waits", "waits");
  obs::Counter decode_failures =
      obs::registry().counter("serve.decode_failures", "blocks");
  obs::Counter evictions = obs::registry().counter("serve.evictions", "blocks");
  obs::Counter bytes_delivered =
      obs::registry().counter("serve.bytes_delivered", "bytes");
  obs::Counter retries = obs::registry().counter("serve.retries", "retries");
  obs::Counter transient_errors =
      obs::registry().counter("serve.transient_errors", "errors");
  obs::Counter permanent_errors =
      obs::registry().counter("serve.permanent_errors", "errors");
  obs::Counter degraded_reads =
      obs::registry().counter("serve.degraded_reads", "reads");
  obs::Counter bytes_zero_filled =
      obs::registry().counter("serve.bytes_zero_filled", "bytes");
};

ServeObs& serve_obs() {
  static ServeObs instance;
  return instance;
}

/// One counter event, recorded in both planes: the session's own
/// atomic (SessionStats) and the process-wide registry mirror.
void bump(std::atomic<std::uint64_t>& local, const obs::Counter& global,
          std::uint64_t n = 1) {
  local.fetch_add(n, std::memory_order_relaxed);
  global.add(n);
}

}  // namespace

std::uint64_t RetryPolicy::jittered_backoff_us(std::size_t attempt,
                                               std::uint64_t salt) const {
  const std::uint64_t base = backoff_us(attempt);
  const double j = std::min(std::max(jitter, 0.0), 1.0);
  if (j == 0.0 || base == 0) return base;
  // SplitMix64 finalizer over the (seed, salt, attempt) tuple: a
  // stateless, replayable draw — no shared RNG state between concurrent
  // decode tasks, and the same policy always sleeps the same ladder.
  std::uint64_t z = jitter_seed ^ (salt * 0x9E3779B97F4A7C15ull) ^
                    (static_cast<std::uint64_t>(attempt) << 32);
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  const double u = static_cast<double>(z >> 11) * 0x1.0p-53;  // [0, 1)
  const double factor = 1.0 - j + 2.0 * j * u;                // [1-j, 1+j)
  return static_cast<std::uint64_t>(static_cast<double>(base) * factor);
}

DecodeSession::DecodeSession(std::unique_ptr<ByteSource> source,
                             std::shared_ptr<ContainerBackend> backend,
                             SessionOptions options)
    : source_(std::move(source)),
      backend_(std::move(backend)),
      options_(options) {
  check(backend_ != nullptr, "serve: null container backend");
  check_format(backend_->source_size() == source_->size(),
               "serve: seek index does not match the source (rebuild it)");
  init();
}

void DecodeSession::init() {
  if (options_.buffer_pool != nullptr) buffers_ = options_.buffer_pool;
  // A shared pool (the serve daemon) bounds concurrency and memory per
  // pool, not per session; otherwise num_threads picks one.
  pool_ = options_.pool != nullptr ? options_.pool
                                   : resolve_pool(options_.num_threads, own_pool_);
  async_ = pool_ != nullptr && pool_->async();
  window_ = async_ ? std::max<std::size_t>(1, options_.max_inflight_blocks) : 1;
  // A window beyond the block count buys nothing and would drag the
  // cache capacity (clamped up to the window below) along with it.
  window_ = std::min(window_, std::max<std::size_t>(1, backend_->num_blocks()));
  // The cache must hold at least the prefetch window, or the pipeline
  // would evict blocks it just decoded before the reader reaches them.
  cache_capacity_ = std::max(options_.cache_blocks, window_);
  // Construction is single-threaded; the lock satisfies the analysis
  // (init() runs outside the constructor-body exemption).
  util::MutexLock lock(mutex_);
  health_.assign(backend_->num_blocks(), BlockHealth::kUnknown);
}

DecodeSession::~DecodeSession() {
  util::MutexLock lock(mutex_);
  while (inflight_ != 0) ready_cv_.wait(mutex_);
}

std::uint64_t DecodeSession::tell() const {
  util::MutexLock lock(cursor_mutex_);
  return cursor_;
}

void DecodeSession::seek(std::uint64_t offset) {
  util::MutexLock lock(cursor_mutex_);
  cursor_ = offset;
}

std::size_t DecodeSession::read(MutableByteSpan dst) {
  // The cursor lock is held across the whole read so concurrent read()
  // calls deliver disjoint consecutive ranges (never the same bytes
  // twice). It is distinct from mutex_ — fetch_into takes that one while
  // blocking on decodes — and is only ever acquired before it.
  util::MutexLock lock(cursor_mutex_);
  const std::size_t n = read_impl(cursor_, dst);
  cursor_ += n;
  return n;
}

std::size_t DecodeSession::read_at(std::uint64_t offset, MutableByteSpan dst) {
  return read_impl(offset, dst);
}

Bytes DecodeSession::read_bytes_at(std::uint64_t offset, std::size_t length) {
  // Clamp before allocating: an untrusted range request must produce a
  // short read, not a length-capacity allocation attempt.
  const std::uint64_t total = size();
  const std::size_t n =
      offset >= total ? 0
                      : static_cast<std::size_t>(
                            std::min<std::uint64_t>(length, total - offset));
  Bytes out(n);
  out.resize(read_impl(offset, MutableByteSpan(out.data(), out.size())));
  return out;
}

std::size_t DecodeSession::read_impl(std::uint64_t offset, MutableByteSpan dst) {
  const std::uint64_t total = size();
  if (offset >= total || dst.empty()) return 0;
  serve_obs().reads.add(1);
  obs::StageScope stage("serve_read", "serve", serve_obs().read_latency_us);
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(dst.size(), total - offset));
  std::size_t done = 0;
  while (done < n) {
    const std::uint64_t off = offset + done;
    const std::size_t b = backend_->block_containing(off);
    const BackendBlock e = backend_->block(b);
    const std::size_t in_block = static_cast<std::size_t>(off - e.uncomp_offset);
    const std::size_t take = std::min<std::size_t>(
        n - done, static_cast<std::size_t>(e.uncomp_size) - in_block);
    fetch_into(b, in_block, take, dst.data() + done);
    done += take;
  }
  return n;
}

std::size_t DecodeSession::read_at_damage_tolerant(std::uint64_t offset,
                                                   MutableByteSpan dst,
                                                   DamageReport* report) {
  const std::uint64_t total = size();
  if (offset >= total || dst.empty()) return 0;
  serve_obs().reads.add(1);
  obs::StageScope stage("serve_read", "serve", serve_obs().read_latency_us);
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(dst.size(), total - offset));
  std::size_t done = 0;
  while (done < n) {
    const std::uint64_t off = offset + done;
    const std::size_t b = backend_->block_containing(off);
    const BackendBlock e = backend_->block(b);
    const std::size_t in_block = static_cast<std::size_t>(off - e.uncomp_offset);
    const std::size_t take = std::min<std::size_t>(
        n - done, static_cast<std::size_t>(e.uncomp_size) - in_block);

    // Known-damaged fast path: a block that already failed permanently
    // is zero-filled without re-decoding it on every read.
    bool damaged = false;
    ErrorKind kind = ErrorKind::kCorruption;
    std::string message;
    {
      util::MutexLock lock(mutex_);
      if (health_[b] == BlockHealth::kDamaged) {
        damaged = true;
        const auto it = damage_.find(b);
        if (it != damage_.end()) {
          kind = it->second.kind;
          message = it->second.message;
        }
      }
    }
    if (!damaged) {
      try {
        fetch_into(b, in_block, take, dst.data() + done);
        done += take;
        continue;
      } catch (const Error& err) {
        // Config-class errors are API misuse, not data damage — degrade
        // only on typed failures (permanent damage, or an IoError that
        // already survived the whole RetryPolicy inside decode_task).
        if (err.kind() == ErrorKind::kConfig) throw;
        kind = err.kind();
        message = err.what();
      }
    }
    std::memset(dst.data() + done, 0, take);
    bump(counters_.degraded_reads, serve_obs().degraded_reads);
    bump(counters_.bytes_zero_filled, serve_obs().bytes_zero_filled, take);
    if (report != nullptr) {
      report->extents.push_back(
          DamagedExtent{off, take, b, kind, std::move(message)});
    }
    done += take;
  }
  return n;
}

DamageReport DecodeSession::verify_archive() {
  DamageReport report;
  Bytes scratch;
  for (std::size_t b = 0; b < backend_->num_blocks(); ++b) {
    const BackendBlock e = backend_->block(b);
    scratch.resize(static_cast<std::size_t>(e.uncomp_size));
    read_at_damage_tolerant(e.uncomp_offset,
                            MutableByteSpan(scratch.data(), scratch.size()),
                            &report);
  }
  return report;
}

BlockHealth DecodeSession::block_health(std::size_t b) const {
  util::MutexLock lock(mutex_);
  check(b < health_.size(), "serve: block index out of range");
  return health_[b];
}

void DecodeSession::schedule_locked(std::uint64_t first,
                                    std::vector<std::uint64_t>& to_run) {
  const std::uint64_t end_block = backend_->num_blocks();
  // Readahead only for streams: lookahead pays off when the reader walks
  // forward, i.e. it starts at block 0 or was already served from the
  // predecessor. Any other demand schedules its own block alone.
  const auto prev = first == 0 ? slots_.end() : slots_.find(first - 1);
  const bool stream =
      first == 0 || (prev != slots_.end() && prev->second->delivered);
  const std::uint64_t span = stream ? window_ : 1;
  // Subtractive window bound: `first + span` could wrap for an absurd
  // max_inflight_blocks (e.g. CLI --inflight -1 wrapping through stoul)
  // and turn the demanded block's scheduling into a livelock.
  for (std::uint64_t b = first; b < end_block && b - first < span; ++b) {
    if (slots_.find(b) != slots_.end()) continue;
    // The demanded block is always scheduled; lookahead stops at the
    // in-flight cap (the pipeline's backpressure).
    if (b != first && inflight_ >= window_) break;
    slots_.emplace(b, std::make_shared<Slot>());
    ++inflight_;
    to_run.push_back(b);
  }
}

// The lock juggling through the reference parameter is invisible to the
// thread-safety analysis (see the declaration); callers hold mutex_ on
// entry and get it back on return.
void DecodeSession::dispatch(util::MutexLock& lock,
                             const std::vector<std::uint64_t>& to_run,
                             std::uint64_t demanded) NO_THREAD_SAFETY_ANALYSIS {
  if (to_run.empty()) return;
  // The demanded block is demand-driven work even when a pool worker
  // runs it (the reader is about to block on it); only the lookahead
  // beyond it is prefetch. schedule_locked puts the demanded block
  // first when it schedules it at all.
  const std::size_t demand = to_run.front() == demanded ? 1 : 0;
  if (demand != 0) bump(counters_.demand_decodes, serve_obs().demand_decodes);
  if (to_run.size() > demand) {
    bump(counters_.prefetch_decodes, serve_obs().prefetch_decodes,
         to_run.size() - demand);
  }
  lock.unlock();
  for (const std::uint64_t b : to_run) {
    if (async_) {
      pool_->submit([this, b] { decode_task(b); });
    } else {
      decode_task(b);
    }
  }
  lock.lock();
}

void DecodeSession::fetch_into(std::uint64_t block, std::size_t begin,
                               std::size_t len, std::uint8_t* out) {
  util::MutexLock lock(mutex_);
  std::vector<std::uint64_t> to_run;
  schedule_locked(block, to_run);
  const bool scheduled_here =
      !to_run.empty() && to_run.front() == block;
  dispatch(lock, to_run, block);
  bool first_look = true;
  while (true) {
    const auto it = slots_.find(block);
    if (it == slots_.end()) {
      // Evicted between completion and consumption (possible only under
      // heavy concurrent random access) — schedule it again.
      to_run.clear();
      schedule_locked(block, to_run);
      dispatch(lock, to_run, block);
      first_look = false;
      continue;
    }
    const std::shared_ptr<Slot> slot = it->second;
    if (slot->state == Slot::State::kReady) {
      if (first_look && !scheduled_here)
        bump(counters_.cache_hits, serve_obs().cache_hits);
      lru_.erase(slot->lru_it);
      lru_.push_front(block);
      slot->lru_it = lru_.begin();
      slot->delivered = true;
      bump(counters_.bytes_delivered, serve_obs().bytes_delivered, len);
      // Pin the slot and copy outside the lock: a block-sized memcpy
      // under mutex_ would serialize concurrent readers and stall every
      // decode task trying to publish. Eviction skips slots with
      // waiters != 0, so the buffer cannot be released mid-copy.
      ++slot->waiters;
      lock.unlock();
      std::memcpy(out, slot->data.data() + begin, len);
      lock.lock();
      --slot->waiters;
      return;
    }
    if (slot->state == Slot::State::kFailed) {
      // Failure is delivered, not cached: drop the slot (once no other
      // reader is still draining it) so a later read retries the block —
      // a transient I/O error must not poison the session for its
      // lifetime, and failed slots must not accumulate. A stale failure
      // from a lookahead decode this reader never observed (neither
      // scheduled nor waited on) gets one transparent retry first, so a
      // fault that already cleared does not abort an unrelated read;
      // the retry's own failure is delivered (first_look is false then),
      // which bounds it to one attempt.
      if (first_look && !scheduled_here) {
        if (slot->waiters != 0) {
          // Other readers are still draining the failed slot (woken but
          // not yet past their decrement). The retry is deferred, not
          // skipped: wait for the last of them to drop the slot instead
          // of rethrowing an error this reader never observed.
          while (true) {
            const auto cur = slots_.find(block);
            if (cur == slots_.end() || cur->second != slot ||
                slot->waiters == 0) {
              break;
            }
            ready_cv_.wait(mutex_);
          }
          continue;
        }
        slots_.erase(block);
        to_run.clear();
        schedule_locked(block, to_run);
        dispatch(lock, to_run, block);
        first_look = false;
        continue;
      }
      // Copy the failure record out of the slot before dropping it, then
      // raise a FRESH exception: delivering one shared exception object
      // to concurrent readers races its destruction (see Slot).
      const bool typed = slot->error_typed;
      const ErrorKind kind = slot->error_kind;
      const std::string what = slot->error_what;
      const std::exception_ptr error = slot->error;
      if (slot->waiters == 0) {
        slots_.erase(block);
        // A deferred-retry reader may be waiting for this drain.
        ready_cv_.notify_all();
      }
      if (typed) throw_error(kind, what);
      std::rethrow_exception(error);
    }
    ++slot->waiters;
    bump(counters_.decode_waits, serve_obs().decode_waits);
    while (slot->state == Slot::State::kScheduled) ready_cv_.wait(mutex_);
    --slot->waiters;
    first_look = false;
  }
}

void DecodeSession::backoff_sleep(std::uint64_t us) {
  if (options_.sleep_hook) {
    options_.sleep_hook(us);
  } else if (us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
}

void DecodeSession::decode_task(std::uint64_t block) {
  // Transient (IoError) failures from the source read or the decode are
  // retried here with capped exponential backoff, so a fault that clears
  // is invisible to every reader; permanent errors (corruption, format)
  // publish immediately — retrying would reproduce them byte-for-byte.
  const RetryPolicy& policy = options_.retry;
  std::uint64_t slept_us = 0;
  for (std::size_t attempt = 1;; ++attempt) {
    // Failure record for this attempt; typed failures never keep the
    // exception object itself (see Slot::error_typed).
    bool typed = false;
    ErrorKind kind = ErrorKind::kConfig;
    std::string what;
    std::exception_ptr untyped;
    try {
      const BackendBlock e = backend_->block(static_cast<std::size_t>(block));
      util::PooledBuffer out =
          buffers_->acquire(static_cast<std::size_t>(e.uncomp_size));
      // The backend draws its compressed staging from buffers_ too and
      // returns it before this call publishes, so the memory-bound
      // witness sees the same peak the old inline decode had.
      backend_->decode_block(static_cast<std::size_t>(block), *source_,
                             *buffers_, out.span());

      util::MutexLock lock(mutex_);
      health_[static_cast<std::size_t>(block)] = BlockHealth::kGood;
      damage_.erase(block);
      Slot& slot = *slots_.at(block);
      slot.data = std::move(out);
      slot.state = Slot::State::kReady;
      --inflight_;
      ++ready_count_;
      bump(counters_.blocks_decoded, serve_obs().blocks_decoded);
      lru_.push_front(block);
      slot.lru_it = lru_.begin();
      evict_excess_locked();
      // Notify while holding the lock: the destructor tears the session
      // down as soon as inflight_ hits zero, so the cv must not be touched
      // from the unlocked tail of a task.
      ready_cv_.notify_all();
      return;
    } catch (const Error& e) {
      // Classify by type, never by message: only the Error hierarchy
      // carries a kind; anything else (bad_alloc, logic_error) is
      // unclassified and published as-is, unretried.
      typed = true;
      kind = e.kind();
      what = e.what();
    } catch (const std::exception& e) {
      untyped = std::current_exception();
      what = e.what();
    } catch (...) {
      untyped = std::current_exception();
      what = "unknown decode failure";
    }

    if (kind == ErrorKind::kIo) {
      // Jittered (seeded, per-block salt) so concurrent tasks tripping
      // over the same fault burst do not retry in lockstep; the jittered
      // value also charges the deadline, which therefore stays exact.
      const std::uint64_t backoff = policy.jittered_backoff_us(attempt + 1, block);
      const bool within_deadline =
          policy.deadline_us == 0 || slept_us + backoff <= policy.deadline_us;
      const bool retry = attempt < policy.max_attempts && within_deadline;
      bump(counters_.transient_errors, serve_obs().transient_errors);
      if (retry) bump(counters_.retries, serve_obs().retries);
      if (retry) {
        backoff_sleep(backoff);
        slept_us += backoff;
        continue;
      }
    }

    util::MutexLock lock(mutex_);
    if (kind == ErrorKind::kCorruption || kind == ErrorKind::kFormat) {
      bump(counters_.permanent_errors, serve_obs().permanent_errors);
      health_[static_cast<std::size_t>(block)] = BlockHealth::kDamaged;
      damage_[block] = BlockDamage{kind, what};
    }
    Slot& slot = *slots_.at(block);
    slot.state = Slot::State::kFailed;
    slot.error_typed = typed;
    slot.error_kind = kind;
    slot.error_what = std::move(what);
    slot.error = untyped;
    --inflight_;
    bump(counters_.decode_failures, serve_obs().decode_failures);
    ready_cv_.notify_all();
    return;
  }
}

void DecodeSession::evict_excess_locked() {
  while (ready_count_ > cache_capacity_) {
    // Oldest evictable block (no reader waiting on it).
    auto it = lru_.end();
    bool evicted = false;
    while (it != lru_.begin()) {
      --it;
      const std::uint64_t victim = *it;
      if (slots_.at(victim)->waiters == 0) {
        slots_.erase(victim);
        lru_.erase(it);
        --ready_count_;
        bump(counters_.evictions, serve_obs().evictions);
        evicted = true;
        break;
      }
    }
    if (!evicted) break;  // every ready block has a waiter — overshoot
  }
}

SessionStats DecodeSession::stats() const {
  // Lock-free snapshot: each field is one relaxed atomic load, so this
  // never stalls a decode task and never observes a torn counter.
  const AtomicCounters& c = counters_;
  const auto load = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  SessionStats s;
  s.blocks_decoded = load(c.blocks_decoded);
  s.cache_hits = load(c.cache_hits);
  s.demand_decodes = load(c.demand_decodes);
  s.prefetch_decodes = load(c.prefetch_decodes);
  s.decode_waits = load(c.decode_waits);
  s.decode_failures = load(c.decode_failures);
  s.evictions = load(c.evictions);
  s.bytes_delivered = load(c.bytes_delivered);
  s.retries = load(c.retries);
  s.transient_errors = load(c.transient_errors);
  s.permanent_errors = load(c.permanent_errors);
  s.degraded_reads = load(c.degraded_reads);
  s.bytes_zero_filled = load(c.bytes_zero_filled);
  s.pool = buffers_->stats();
  return s;
}

}  // namespace gompresso::serve
