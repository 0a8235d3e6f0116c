#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/logging.h"

namespace lqo {
namespace {

// Set for the lifetime of each worker thread; lets ParallelFor detect
// nesting and degrade to inline execution instead of deadlocking on a full
// pool.
thread_local bool t_in_worker = false;

std::unique_ptr<ThreadPool>& GlobalSlot() {
  static std::unique_ptr<ThreadPool>* slot = new std::unique_ptr<ThreadPool>();
  return *slot;
}

std::mutex& GlobalMutex() {
  static std::mutex* m = new std::mutex();
  return *m;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    // Serial pool: run immediately on the caller.
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  ready_.notify_one();
}

void ThreadPool::WorkerLoop() {
  t_in_worker = true;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

bool ThreadPool::InWorker() { return t_in_worker; }

int ThreadPool::ParseThreadCount(const char* value) {
  int fallback = static_cast<int>(std::thread::hardware_concurrency());
  if (fallback <= 0) fallback = 1;
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || parsed <= 0) return fallback;
  return static_cast<int>(std::min<long>(parsed, 256));
}

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(GlobalMutex());
  std::unique_ptr<ThreadPool>& slot = GlobalSlot();
  if (slot == nullptr) {
    slot = std::make_unique<ThreadPool>(
        ParseThreadCount(std::getenv("LQO_THREADS")));
  }
  return *slot;
}

void ThreadPool::SetGlobalThreads(int num_threads) {
  std::lock_guard<std::mutex> lock(GlobalMutex());
  GlobalSlot() = std::make_unique<ThreadPool>(num_threads);
}

void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                 ThreadPool* pool) {
  if (n == 0) return;
  if (pool == nullptr) pool = &ThreadPool::Global();
  // Serial fast paths: one-thread pool, tiny loops, or nested calls from a
  // worker (running inline keeps the pool deadlock-free). All paths visit
  // indices 0..n-1, so results never depend on which path ran.
  if (pool->num_threads() <= 1 || n == 1 || ThreadPool::InWorker()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // The caller and up to N-1 helper tasks claim chunks from one shared
  // counter, so an N-thread pool runs the loop on N threads, and the caller
  // alone finishes it when every worker is busy elsewhere. A helper that
  // starts after the last chunk was claimed touches only the shared_ptr-owned
  // state, never `fn`: the caller may already have returned.
  size_t num_chunks =
      std::min(n, static_cast<size_t>(pool->num_threads()) * 4);
  struct State {
    explicit State(size_t chunks) : errors(chunks) {}
    // The next unclaimed chunk: each fetch_add hands out a distinct index.
    // A chunk's writes reach the caller through `mutex`, not through it.
    std::atomic<size_t> next_chunk{0};
    std::mutex mutex;  // guards: finished (chunk-completion handshake)
    std::condition_variable done;
    size_t finished = 0;
    std::vector<std::exception_ptr> errors;
  };
  auto state = std::make_shared<State>(num_chunks);
  const std::function<void(size_t)>* body = &fn;

  // Runs chunks until none is left unclaimed.
  auto claim_chunks = [state, body, n, num_chunks] {
    for (;;) {
      size_t chunk = state->next_chunk.fetch_add(1);
      if (chunk >= num_chunks) return;
      size_t begin = chunk * n / num_chunks;
      size_t end = (chunk + 1) * n / num_chunks;
      try {
        for (size_t i = begin; i < end; ++i) (*body)(i);
      } catch (...) {
        state->errors[chunk] = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(state->mutex);
      if (++state->finished == num_chunks) state->done.notify_one();
    }
  };

  size_t helpers =
      std::min(static_cast<size_t>(pool->num_threads() - 1), num_chunks - 1);
  for (size_t h = 0; h < helpers; ++h) pool->Submit(claim_chunks);
  claim_chunks();
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->done.wait(lock, [&] { return state->finished == num_chunks; });
  }
  // Deterministic error choice: first failing chunk wins, independent of
  // scheduling order.
  for (const std::exception_ptr& error : state->errors) {
    if (error != nullptr) std::rethrow_exception(error);
  }
}

}  // namespace lqo
