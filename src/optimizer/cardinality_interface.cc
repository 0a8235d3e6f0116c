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

double CardinalityProvider::Scaled(TableSet tables, double value) const {
  if (PopCount(tables) >= scale_min_tables_ && scale_min_tables_ > 0) {
    value *= scale_factor_;
  }
  return value;
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
  return Scaled(subquery.tables, value);
}

void CardinalityProvider::ComputeBatch(const Query& query,
                                       const std::vector<TableSet>& sets,
                                       std::vector<double>* out) {
  out->assign(sets.size(), 0.0);
  // Overridden subsets are answered from the table; the rest, in order, go
  // to the base view or the estimator in one call.
  std::vector<size_t> pending;
  pending.reserve(sets.size());
  for (size_t i = 0; i < sets.size(); ++i) {
    if (!overrides_.empty()) {
      auto it = overrides_.find(Subquery{&query, sets[i]}.Key());
      if (it != overrides_.end()) {
        (*out)[i] = it->second;
        continue;
      }
    }
    pending.push_back(i);
  }
  if (pending.empty()) return;

  std::vector<double> raw;
  if (base_ != nullptr) {
    std::vector<TableSet> pending_sets;
    pending_sets.reserve(pending.size());
    for (size_t i : pending) pending_sets.push_back(sets[i]);
    base_->RawBatch(query, pending_sets, &raw);
  } else {
    std::vector<Subquery> subqueries;
    subqueries.reserve(pending.size());
    for (size_t i : pending) subqueries.push_back(Subquery{&query, sets[i]});
    LQO_CHECK(estimator_ != nullptr)
        << "CardinalityProvider has no estimator and no override for "
        << subqueries.front().Key();
    raw = estimator_->EstimateSubqueryBatch(subqueries);
    LQO_CHECK_EQ(raw.size(), subqueries.size());
  }
  for (size_t k = 0; k < pending.size(); ++k) {
    (*out)[pending[k]] = Scaled(sets[pending[k]], raw[k]);
  }
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

void CardinalityProvider::RawBatch(const Query& query,
                                   const std::vector<TableSet>& sets,
                                   std::vector<double>* out) {
  // Every subset gets its memo slot now: a hit finds the stored value, a
  // miss inserts a slot that the batch below fills. A subset that repeats
  // within the batch (equal keys, as in a self-join) finds the slot of its
  // first occurrence and counts as a hit, as it would in scalar order.
  // Map nodes never move, so the slot pointers survive later inserts.
  KeyHashParts hashes(query);
  std::vector<double*> slots(sets.size());
  std::vector<TableSet> missed;
  std::vector<double*> missed_slots;
  for (size_t i = 0; i < sets.size(); ++i) {
    auto [it, inserted] = cache_.try_emplace(hashes.Of(sets[i]), 0.0);
    slots[i] = &it->second;
    if (inserted) {
      ++misses_;
      missed.push_back(sets[i]);
      missed_slots.push_back(slots[i]);
    } else {
      ++hits_;
    }
  }
  std::vector<double> computed;
  ComputeBatch(query, missed, &computed);
  for (size_t k = 0; k < missed.size(); ++k) *missed_slots[k] = computed[k];
  out->resize(sets.size());
  for (size_t i = 0; i < sets.size(); ++i) (*out)[i] = *slots[i];
}

double CardinalityProvider::Cardinality(const Subquery& subquery) {
  return std::max(Raw(subquery), 1.0);
}

void CardinalityProvider::CardinalityBatch(const Query& query,
                                           const std::vector<TableSet>& sets,
                                           std::vector<double>* out) {
  RawBatch(query, sets, out);
  for (double& value : *out) value = std::max(value, 1.0);
}

}  // namespace lqo
