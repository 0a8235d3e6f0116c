#include "optimizer/cardinality_interface.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace lqo {

std::vector<double> CardinalityEstimatorInterface::EstimateSubqueryBatch(
    const std::vector<Subquery>& subqueries) {
  // Scalar fallback, morsel-parallel: EstimateSubquery is re-entrant by
  // contract, and ParallelMap writes index-addressed slots, so the result
  // vector is identical at any thread count.
  return ParallelMap(subqueries.size(), [&](size_t i) {
    return EstimateSubquery(subqueries[i]);
  });
}

CardinalityProvider::CardinalityProvider(CardinalityProvider* base,
                                         double scale_factor,
                                         int scale_min_tables)
    : estimator_(base == nullptr ? nullptr : base->estimator_),
      base_(base),
      scale_factor_(scale_factor),
      scale_min_tables_(scale_min_tables) {
  LQO_CHECK(base_ != nullptr);
}

void CardinalityProvider::InjectOverride(const std::string& key,
                                         double cardinality) {
  overrides_[key] = cardinality;
  cache_.clear();
}

void CardinalityProvider::SetScale(double factor, int min_tables) {
  scale_factor_ = factor;
  scale_min_tables_ = min_tables;
  cache_.clear();
}

void CardinalityProvider::ClearOverrides() {
  overrides_.clear();
  scale_factor_ = 1.0;
  scale_min_tables_ = 0;
  cache_.clear();
}

double CardinalityProvider::Compute(const Subquery& subquery) {
  auto it = overrides_.empty() ? overrides_.end()
                               : overrides_.find(subquery.Key());
  if (it != overrides_.end()) return it->second;

  double value;
  if (base_ != nullptr) {
    value = base_->Raw(subquery);
  } else {
    LQO_CHECK(estimator_ != nullptr)
        << "CardinalityProvider has no estimator and no override for "
        << subquery.Key();
    value = estimator_->EstimateSubquery(subquery);
  }
  if (PopCount(subquery.tables) >= scale_min_tables_ &&
      scale_min_tables_ > 0) {
    value *= scale_factor_;
  }
  return value;
}

double CardinalityProvider::Raw(const Subquery& subquery) {
  uint64_t hash = subquery.KeyHash();
  if (auto cached = cache_.find(hash); cached != cache_.end()) {
    ++hits_;
    return cached->second;
  }
  ++misses_;
  double value = Compute(subquery);
  cache_[hash] = value;
  return value;
}

double CardinalityProvider::Cardinality(const Subquery& subquery) {
  return std::max(Raw(subquery), 1.0);
}

}  // namespace lqo
