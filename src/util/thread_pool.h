// A small fixed-size thread pool with a ParallelFor convenience wrapper.
//
// Heavy kernels (SpMM, GEMM, top-K ranking) parallelize over row ranges.
// OpenMP is used inside the tensor kernels where available; this pool covers
// coarse-grained task parallelism (e.g. evaluating user chunks) and gives a
// deterministic work partition: ParallelFor always splits [begin, end) into
// the same contiguous chunks for a given worker count, so results that are
// reduced in chunk order are reproducible.

#ifndef LAYERGCN_UTIL_THREAD_POOL_H_
#define LAYERGCN_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace layergcn::util {

/// Fixed-size worker pool.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (>= 1). Defaults to the hardware
  /// concurrency, floored at two so the parallel paths run everywhere.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Thread-safe.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has completed.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Process-wide shared pool. Sized by the LAYERGCN_NUM_THREADS
  /// environment variable when set (>= 1), else the hardware concurrency.
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_cv_;
  std::condition_variable done_cv_;
  int64_t in_flight_ = 0;
  bool shutdown_ = false;
};

/// Runs body(i) for every i in [begin, end), split into contiguous chunks
/// across the pool. Blocks until complete. `body` must be safe to call
/// concurrently for distinct i. When called from inside a pool worker the
/// loop runs inline (nested waits on the same pool would deadlock).
void ParallelFor(ThreadPool* pool, int64_t begin, int64_t end,
                 const std::function<void(int64_t)>& body);

/// ParallelFor on parallel::ComputePool() (util/parallel.h), which honours
/// a ScopedComputePool override.
void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t)>& body);

/// Range-based variant for kernels that keep per-range scratch: splits
/// [begin, end) into at most num_threads() contiguous ranges and runs
/// body(lo, hi) for each. The partition is deterministic for a given worker
/// count, and each range is handled by a single invocation, so `body` can
/// allocate scratch once and reuse it across the range. Runs inline when
/// called from inside a pool worker.
void ParallelForRanges(ThreadPool* pool, int64_t begin, int64_t end,
                       const std::function<void(int64_t, int64_t)>& body);

/// ParallelForRanges on parallel::ComputePool() (util/parallel.h).
void ParallelForRanges(int64_t begin, int64_t end,
                       const std::function<void(int64_t, int64_t)>& body);

/// True on threads that live inside any ThreadPool. Parallel primitives
/// check it to run nested calls inline (a worker waiting on its own pool
/// would deadlock).
bool InPoolWorker();

}  // namespace layergcn::util

#endif  // LAYERGCN_UTIL_THREAD_POOL_H_
