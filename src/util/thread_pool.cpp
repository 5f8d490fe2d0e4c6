#include "util/thread_pool.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace gompresso {
namespace {

// Pool-plane metrics, registered once on first pool construction.
// queue_depth tracks submitted-but-not-yet-popped tasks; workers_busy
// counts threads currently executing job indices or queued tasks.
struct PoolObs {
  obs::Counter tasks_submitted =
      obs::registry().counter("pool.tasks_submitted", "tasks");
  obs::Counter jobs_dispatched =
      obs::registry().counter("pool.jobs_dispatched", "jobs");
  obs::Gauge queue_depth = obs::registry().gauge("pool.queue_depth", "tasks");
  obs::Gauge workers_busy =
      obs::registry().gauge("pool.workers_busy", "workers");
};

PoolObs& pool_obs() {
  static PoolObs instance;
  return instance;
}

// The pool whose job the current thread is executing (nullptr outside any
// job) and the thread's participant index in that pool. A nested
// parallel_for on the *same* pool runs inline — re-entering the dispatch
// protocol would deadlock the caller on its own job — and reports the
// enclosing worker's index so per-worker slots stay exclusive. A call
// into a *different* pool dispatches normally: that pool's state is
// independent, and reusing the enclosing index there would break the
// callee pool's index bound.
thread_local const ThreadPool* tls_current_pool = nullptr;
thread_local std::size_t tls_worker_index = 0;

}  // namespace

// Task-queue capacity. Producers (the serve prefetcher) bound themselves
// far below this with their in-flight windows; the queue bound is the
// backstop that keeps a runaway producer from accumulating closures.
constexpr std::size_t kTaskQueueCapacity = 1024;

ThreadPool::ThreadPool(std::size_t num_threads) : tasks_(kTaskQueueCapacity) {
  // Construct the obs singletons before this pool finishes constructing:
  // a static pool (default_pool) drains tasks in its destructor, and
  // those touch the registry/tracer — this ordering guarantees both are
  // destroyed after any pool that might still report into them.
  obs::ensure_initialized();
  pool_obs();
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  // The calling thread also works, so spawn one fewer worker.
  const std::size_t workers = num_threads > 1 ? num_threads - 1 : 0;
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
  // Tasks still queued when the workers shut down run here so no waiter
  // on a task's side effects can hang (see the submit() contract).
  std::function<void()> task;
  while (tasks_.try_pop(task)) {
    pool_obs().queue_depth.add(-1);
    task();
  }
}

void ThreadPool::run_job(Job& job, std::size_t worker_index) const {
  // Save/restore so a cross-pool call (this thread already inside another
  // pool's job) regains its enclosing identity afterwards.
  const ThreadPool* const prev_pool = tls_current_pool;
  const std::size_t prev_index = tls_worker_index;
  tls_current_pool = this;
  tls_worker_index = worker_index;
  pool_obs().workers_busy.add(1);
  while (true) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.count) break;
    try {
      (*job.fn)(worker_index, i);
    } catch (...) {
      util::MutexLock lock(job.error_mutex);
      if (!job.error) job.error = std::current_exception();
    }
    // publishes: fn(i)'s side effects for index i; pairs-with the
    // acquire load in run()'s done-count wait loop.
    job.done.fetch_add(1, std::memory_order_release);
  }
  pool_obs().workers_busy.add(-1);
  tls_current_pool = prev_pool;
  tls_worker_index = prev_index;
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  std::uint64_t served_generation = 0;
  while (true) {
    std::shared_ptr<Job> job;
    {
      util::MutexLock lock(mutex_);
      // Waking for a submitted task relies on submit() notifying cv_
      // under mutex_ after the push: either this worker is already
      // waiting (and receives the notify) or it re-evaluates the
      // condition on wake and sees the non-empty queue.
      while (!stop_ &&
             !(current_ != nullptr && generation_ != served_generation) &&
             tasks_.empty()) {
        cv_.wait(mutex_);
      }
      if (stop_) return;  // still-queued tasks drain in the destructor
      if (current_ != nullptr && generation_ != served_generation) {
        served_generation = generation_;
        job = current_;  // shared ownership keeps the job alive past the caller
      }
    }
    if (job != nullptr) {
      run_job(*job, worker_index);
      // Bracket the notify with the mutex: the caller evaluates the done
      // predicate under mutex_, so acquiring it here ensures the caller
      // is either not yet waiting (and will see the final done count) or
      // already blocked in wait (and receives this notification) —
      // without the bracket the last notify could fire in the gap
      // between the caller's predicate check and its block, hanging
      // parallel_for.
      { util::MutexLock lock(mutex_); }
      done_cv_.notify_all();
    }
    std::function<void()> task;
    while (tasks_.try_pop(task)) {
      pool_obs().queue_depth.add(-1);
      pool_obs().workers_busy.add(1);
      task();
      pool_obs().workers_busy.add(-1);
    }
  }
}

void ThreadPool::submit(std::function<void()> fn) {
  pool_obs().tasks_submitted.add(1);
  if (threads_.empty()) {
    fn();  // no workers to hand the task to — degrade to synchronous
    return;
  }
  // Count before the (possibly blocking) push so a consumer's pop can
  // never observe the task without its depth contribution.
  pool_obs().queue_depth.add(1);
  tasks_.push(std::move(fn));  // blocks at capacity (backpressure)
  {
    util::MutexLock lock(mutex_);
  }
  // One task needs one worker; notify_all here would thundering-herd
  // every idle worker per submitted block on the serve hot path.
  cv_.notify_one();
}

void ThreadPool::run(std::size_t count,
                     const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  const bool nested_same_pool = tls_current_pool == this;
  if (threads_.empty() || count == 1 || nested_same_pool) {
    // Inline path: no workers, trivial job, or a nested call on the same
    // pool from inside one of its jobs (re-entering the dispatcher would
    // deadlock). The nested call keeps the enclosing job's worker index
    // so per-worker slots stay exclusive; calls into a different pool
    // take the normal dispatch path instead.
    const std::size_t worker = nested_same_pool ? tls_worker_index : 0;
    for (std::size_t i = 0; i < count; ++i) fn(worker, i);
    return;
  }
  pool_obs().jobs_dispatched.add(1);
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->count = count;
  {
    util::MutexLock lock(mutex_);
    current_ = job;
    ++generation_;
  }
  cv_.notify_all();
  run_job(*job, 0);  // caller participates via the same common queue
  {
    util::MutexLock lock(mutex_);
    // pairs-with: the release fetch_add in run_job's per-index done
    // count — once done covers count, every index's side effects are
    // visible to this thread.
    while (job->done.load(std::memory_order_acquire) < job->count) {
      done_cv_.wait(mutex_);
    }
    current_.reset();
  }
  std::exception_ptr error;
  {
    util::MutexLock lock(job->error_mutex);
    error = job->error;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  run(count, [&fn](std::size_t, std::size_t i) { fn(i); });
}

void ThreadPool::parallel_for_worker(
    std::size_t count,
    const std::function<void(std::size_t worker, std::size_t i)>& fn) {
  run(count, fn);
}

void ThreadPool::parallel_for_chunked(
    std::size_t count, std::size_t grain,
    const std::function<void(std::size_t begin, std::size_t end)>& fn) {
  if (count == 0) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t chunks = (count + grain - 1) / grain;
  run(chunks, [&fn, grain, count](std::size_t, std::size_t c) {
    const std::size_t begin = c * grain;
    fn(begin, std::min(count, begin + grain));
  });
}

ThreadPool& default_pool() {
  static ThreadPool pool;
  return pool;
}

ThreadPool* resolve_pool(std::size_t num_threads,
                         std::unique_ptr<ThreadPool>& owned) {
  if (num_threads == 0) return &default_pool();
  if (num_threads == 1) return nullptr;
  owned = std::make_unique<ThreadPool>(num_threads);
  return owned.get();
}

}  // namespace gompresso
