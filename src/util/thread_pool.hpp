// Block-parallel work execution.
//
// The paper parallelises both Gompresso itself (inter-block parallelism,
// §III) and the CPU baseline libraries (§V-D) by splitting the input into
// equally-sized blocks and having worker threads pull block indices from a
// common queue: "Once a thread has completed decompressing a data block,
// it immediately processes the next block from a common queue. This
// balances the load across CPU threads despite input-dependent processing
// times." This pool implements exactly that discipline.
//
// Extensions for the fast decode path:
//   * parallel_for_worker exposes a dense participant index so callers can
//     keep per-worker accumulators (scratch arenas, metrics) and merge
//     once at the end instead of taking a mutex per block.
//   * parallel_for_chunked dispatches [begin, end) ranges at a caller-
//     chosen grain, which makes fanning out the many small sub-block lanes
//     of a single block cheap (intra-block parallelism, §III-B).
//   * A job running inside a pool may call any parallel_for variant
//     again: on the same pool the nested call runs inline on the calling
//     worker with its enclosing worker index (no deadlock, no
//     oversubscription); on a different pool it dispatches normally,
//     since that pool's workers and worker-index space are independent.
//   * submit() enqueues a detached task on a bounded queue; idle workers
//     interleave tasks with parallel_for jobs. This is what the serve
//     subsystem's pipelined prefetcher rides on: each in-flight block is
//     one submitted decode task, and the queue bound is the backstop
//     behind the session's own in-flight window.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/bounded_queue.hpp"
#include "util/thread_annotations.hpp"

namespace gompresso {

/// A fixed-size pool of worker threads executing indexed block jobs from a
/// shared atomic counter (the "common queue" of §V-D).
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return threads_.size(); }

  /// Total concurrent participants of a parallel_for: the spawned workers
  /// plus the calling thread. Also the exclusive upper bound of the worker
  /// index passed to parallel_for_worker.
  std::size_t parallelism() const { return threads_.size() + 1; }

  /// Runs fn(i) for every i in [0, count), distributing indices across the
  /// workers via a shared counter. Blocks until all indices are processed.
  /// The calling thread participates in the work. Exceptions thrown by fn
  /// are captured and the first one is rethrown on the caller.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Like parallel_for, but fn also receives the dense index of the
  /// participant executing it (0 = the calling thread, 1..num_threads() =
  /// spawned workers). The same participant never runs two indices
  /// concurrently, so fn may freely mutate per-worker state slot
  /// `worker` without synchronisation.
  void parallel_for_worker(
      std::size_t count,
      const std::function<void(std::size_t worker, std::size_t i)>& fn);

  /// Runs fn(begin, end) over [0, count) in chunks of `grain` indices.
  /// One queue pop dispatches a whole chunk, amortising the shared-counter
  /// traffic when individual indices are tiny (sub-block lanes).
  void parallel_for_chunked(
      std::size_t count, std::size_t grain,
      const std::function<void(std::size_t begin, std::size_t end)>& fn);

  /// Enqueues `fn` for asynchronous execution by an idle worker. Blocks
  /// (backpressure) while the bounded task queue is full. With no
  /// spawned workers (parallelism() == 1) the task runs synchronously on
  /// the caller instead. `fn` must not throw — an escaping exception
  /// terminates the process, exactly as it would from a raw std::thread;
  /// callers that need failure reporting capture an exception_ptr inside
  /// the task (see serve::DecodeSession). A task must not block on the
  /// completion of a later-submitted task (the queue is FIFO and workers
  /// are finite), and all submitted tasks must complete or be drained
  /// before the pool is destroyed; the destructor runs any still-queued
  /// tasks on the destructing thread.
  void submit(std::function<void()> fn);

  /// True when submit() executes asynchronously (spawned workers exist).
  bool async() const { return !threads_.empty(); }

 private:
  struct Job {
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    util::Mutex error_mutex;
    std::exception_ptr error GUARDED_BY(error_mutex);
  };

  void run(std::size_t count, const std::function<void(std::size_t, std::size_t)>& fn)
      EXCLUDES(mutex_);
  void worker_loop(std::size_t worker_index) EXCLUDES(mutex_);
  void run_job(Job& job, std::size_t worker_index) const EXCLUDES(mutex_);

  std::vector<std::thread> threads_;
  util::Mutex mutex_;
  util::CondVar cv_;
  util::CondVar done_cv_;
  std::shared_ptr<Job> current_ GUARDED_BY(mutex_);
  std::uint64_t generation_ GUARDED_BY(mutex_) = 0;
  bool stop_ GUARDED_BY(mutex_) = false;
  util::BoundedQueue<std::function<void()>> tasks_;
};

/// Singleton pool shared by the library's parallel codecs. Sized to the
/// hardware concurrency of the host.
ThreadPool& default_pool();

/// The library's one `num_threads` convention: 0 = the shared
/// default_pool(), 1 = the calling thread alone (nullptr), n > 1 = a
/// private pool of n participants, created into `owned`.
ThreadPool* resolve_pool(std::size_t num_threads,
                         std::unique_ptr<ThreadPool>& owned);

/// The library's one block plan, the paper's two levels of parallelism:
/// whole blocks from a common queue (§III, §V-D), and a block's
/// sub-block lanes (§III-B). Calls fn(context, block, lane_pool) for
/// every block in [0, num_blocks): serially without a multi-participant
/// pool; with one, whole blocks across its participants when there is
/// more than one block (pipelining whole blocks beats lane fan-out even
/// for fewer blocks than participants), else the lone block on the
/// calling thread with lane_pool == pool so its lanes fan out.
/// `contexts` is the caller's per-participant state, kept across calls
/// and grown to the pool's parallelism; a participant runs one block at
/// a time, so fn may mutate its context without locks.
template <class Context, class Fn>
void run_block_plan(ThreadPool* pool, std::size_t num_blocks,
                    std::vector<Context>& contexts, Fn&& fn) {
  const bool parallel = pool != nullptr && pool->parallelism() > 1;
  const std::size_t width = parallel ? pool->parallelism() : 1;
  if (contexts.size() < width) contexts.resize(width);
  if (parallel && num_blocks > 1) {
    pool->parallel_for_worker(num_blocks, [&](std::size_t worker, std::size_t b) {
      fn(contexts[worker], b, static_cast<ThreadPool*>(nullptr));
    });
    return;
  }
  ThreadPool* lane_pool = parallel ? pool : nullptr;
  for (std::size_t b = 0; b < num_blocks; ++b) fn(contexts[0], b, lane_pool);
}

}  // namespace gompresso
