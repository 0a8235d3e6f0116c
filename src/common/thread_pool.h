#ifndef LQO_COMMON_THREAD_POOL_H_
#define LQO_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace lqo {

/// Fixed-size worker pool behind every parallel loop in the library.
///
/// Design constraints (see DESIGN.md "Concurrency model"):
///  - Determinism first: the pool itself never reorders observable results.
///    All parallel helpers below write into index-addressed slots and reduce
///    serially, so running at 1 thread and at N threads is bit-for-bit
///    identical.
///  - `LQO_THREADS` in the environment overrides the default worker count
///    (hardware concurrency). `LQO_THREADS=1` degenerates to fully serial
///    inline execution — no worker threads are spawned at all.
///  - Tasks submitted from inside a worker run inline (nested ParallelFor is
///    safe and cannot deadlock the pool).
class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers (the calling thread participates in
  /// ParallelFor); `num_threads <= 1` spawns none.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Logical parallelism of this pool (>= 1).
  int num_threads() const { return num_threads_; }

  /// Enqueues a task. Tasks must not block on other tasks in this pool
  /// (ParallelFor handles that by running inline when nested).
  void Submit(std::function<void()> task) LQO_EXCLUDES(mutex_);

  /// The process-wide pool used by ParallelFor/ParallelMap when no explicit
  /// pool is given. Sized from LQO_THREADS, else hardware concurrency.
  static ThreadPool& Global();

  /// Resizes the global pool (tests and benchmarks sweep thread counts).
  /// Must not be called while parallel work is in flight.
  static void SetGlobalThreads(int num_threads);

  /// Worker count implied by an LQO_THREADS-style string; falls back to
  /// hardware concurrency when `value` is null, empty, or not a positive
  /// integer. Exposed for testing.
  static int ParseThreadCount(const char* value);

  /// True when called from one of this pool's worker threads.
  static bool InWorker();

 private:
  void WorkerLoop();

  int num_threads_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_ LQO_GUARDED_BY(mutex_);
  std::mutex mutex_;  // guards: queue_, stop_
  std::condition_variable ready_;
  bool stop_ LQO_GUARDED_BY(mutex_) = false;
};

/// Runs fn(0), ..., fn(n-1), partitioned over the pool, and blocks until all
/// complete. The calling thread and the pool's workers claim chunks of the
/// index range from one shared counter, so an N-thread pool uses up to N
/// threads, and the caller finishes the loop alone when every worker is
/// busy. Exceptions thrown by tasks are captured and the one from the
/// lowest-indexed chunk is rethrown on the calling thread (a deterministic
/// choice). Runs inline (serially) when the pool has one thread, when n <= 1,
/// or when called from inside a worker (nesting).
void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                 ThreadPool* pool = nullptr);

/// Index-addressed parallel map: returns {fn(0), ..., fn(n-1)} in index
/// order regardless of execution interleaving, so reductions over the result
/// are stable across thread counts.
template <typename Fn>
auto ParallelMap(size_t n, Fn&& fn, ThreadPool* pool = nullptr)
    -> std::vector<decltype(fn(size_t{0}))> {
  std::vector<decltype(fn(size_t{0}))> results(n);
  ParallelFor(
      n, [&](size_t i) { results[i] = fn(i); }, pool);
  return results;
}

}  // namespace lqo

#endif  // LQO_COMMON_THREAD_POOL_H_
