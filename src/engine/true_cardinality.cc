#include "engine/true_cardinality.h"

#include "common/logging.h"

namespace lqo {

TrueCardinalityService::TrueCardinalityService(const Catalog* catalog)
    : executor_(catalog) {}

uint64_t TrueCardinalityService::Cardinality(const Subquery& subquery) {
  std::string key = subquery.Key();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
  }

  PhysicalPlan plan = MakeLeftDeepPlan(*subquery.query, subquery.tables,
                                       JoinAlgorithm::kHashJoin);
  auto result = executor_.Execute(plan);
  LQO_CHECK(result.ok()) << result.status().ToString();
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.emplace(std::move(key), result->row_count);
  return result->row_count;
}

size_t TrueCardinalityService::cache_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

uint64_t TrueCardinalityService::Cardinality(const Query& query) {
  return Cardinality(Subquery{&query, query.AllTables()});
}

}  // namespace lqo
