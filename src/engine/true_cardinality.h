#ifndef LQO_ENGINE_TRUE_CARDINALITY_H_
#define LQO_ENGINE_TRUE_CARDINALITY_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/thread_annotations.h"
#include "engine/executor.h"
#include "query/query.h"

namespace lqo {

/// Computes exact sub-query cardinalities by executing a canonical
/// left-deep hash plan, memoized by the sub-query's canonical key. This is
/// the labeling oracle used to (a) train query-driven estimators and
/// (b) score every estimator's q-error.
///
/// Thread-safe: oracle estimators built on it are planned through
/// EstimateSubqueryBatch(), whose default fans EstimateSubquery() out over
/// the pool. The memo is locked only to look up and to store; two threads
/// missing on one key both execute it and store the same count.
class TrueCardinalityService {
 public:
  explicit TrueCardinalityService(const Catalog* catalog);

  /// Exact COUNT(*) of the sub-query. The table set must be connected.
  uint64_t Cardinality(const Subquery& subquery) LQO_EXCLUDES(mutex_);

  /// Exact COUNT(*) of a full query.
  uint64_t Cardinality(const Query& query) LQO_EXCLUDES(mutex_);

  size_t cache_size() const LQO_EXCLUDES(mutex_);

 private:
  Executor executor_;
  mutable std::mutex mutex_;  // guards: cache_
  std::unordered_map<std::string, uint64_t> cache_ LQO_GUARDED_BY(mutex_);
};

}  // namespace lqo

#endif  // LQO_ENGINE_TRUE_CARDINALITY_H_
