// Smoke tests for src/common/thread_annotations.h: the macros must expand
// to valid (empty) attributes under GCC and to Clang Thread Safety
// attributes under clang, and an annotated class must behave normally.
// This is a compile-time contract as much as a runtime one — if a macro
// expands to garbage on either compiler, this TU stops building.
#include "common/thread_annotations.h"

#include <gtest/gtest.h>

#include <mutex>
#include <shared_mutex>

#include "common/thread_pool.h"

namespace lqo {
namespace {

// An annotated toy mirroring the real shape in the tree: ThreadPool's
// queue (LQO_GUARDED_BY + LQO_EXCLUDES).
class AnnotatedCounter {
 public:
  void Add(int delta) LQO_EXCLUDES(mutex_) {
    std::lock_guard<std::mutex> lock(mutex_);
    AddLocked(delta);
  }

  int Get() const LQO_EXCLUDES(mutex_) {
    std::lock_guard<std::mutex> lock(mutex_);
    return value_;
  }

 private:
  void AddLocked(int delta) LQO_REQUIRES(mutex_) { value_ += delta; }

  mutable std::mutex mutex_;  // guards: value_
  int value_ LQO_GUARDED_BY(mutex_) = 0;
};

TEST(ThreadAnnotationsTest, AnnotatedClassBehavesNormally) {
  AnnotatedCounter counter;
  counter.Add(3);
  counter.Add(4);
  EXPECT_EQ(counter.Get(), 7);
}

TEST(ThreadAnnotationsTest, SharedMutexAnnotationsCompile) {
  class Snapshot {
   public:
    void Set(int v) LQO_EXCLUDES(mutex_) {
      std::unique_lock<std::shared_mutex> lock(mutex_);
      value_ = v;
    }
    int Read() const LQO_REQUIRES_SHARED(mutex_) { return value_; }
    std::shared_mutex& mutex() LQO_NO_THREAD_SAFETY_ANALYSIS {
      return mutex_;
    }

   private:
    mutable std::shared_mutex mutex_;  // guards: value_
    int value_ LQO_GUARDED_BY(mutex_) = 0;
  };

  Snapshot snapshot;
  snapshot.Set(42);
  std::shared_lock<std::shared_mutex> lock(snapshot.mutex());
  EXPECT_EQ(snapshot.Read(), 42);
}

TEST(ThreadAnnotationsTest, AnnotatedSubmitStillRuns) {
  // ThreadPool::Submit carries LQO_EXCLUDES(mutex_); exercise it through
  // the annotated declaration to make sure the attribute changes nothing
  // about overload resolution or the call itself.
  AnnotatedCounter counter;
  ParallelFor(16, [&](size_t) { counter.Add(1); });
  EXPECT_EQ(counter.Get(), 16);
}

}  // namespace
}  // namespace lqo
