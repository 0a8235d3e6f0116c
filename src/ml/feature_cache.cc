#include "ml/feature_cache.h"

#include <cstring>

#include "common/logging.h"

namespace lqo {

FeatureCache::FeatureCache(size_t dim, size_t max_rows)
    : dim_(dim), max_rows_(max_rows), rows_(dim) {
  LQO_CHECK_GT(dim, 0u);
  LQO_CHECK_GT(max_rows, 0u);
}

bool FeatureCache::Lookup(uint64_t key, uint32_t version, double* out) {
  if (version != version_) {
    // Drop every resident row before reporting the miss so a
    // stale-featurizer row can never be served.
    Clear();
    version_ = version;
    stats_.evictions += 1;
  }
  const double* row = nullptr;
  if (auto it = slots_.find(key); it != slots_.end()) {
    row = rows_.Row(it->second);
  } else if (auto prev = slots_prev_.find(key); prev != slots_prev_.end()) {
    // Rotated-out rows are served in place, without promotion, until the
    // next rotation drops them.
    row = rows_prev_.Row(prev->second);
  }
  if (row == nullptr) {
    stats_.misses += 1;
    return false;
  }
  std::memcpy(out, row, dim_ * sizeof(double));
  stats_.hits += 1;
  return true;
}

void FeatureCache::Insert(uint64_t key, uint32_t version, const double* row) {
  // Insert must run under the same version its row was computed under; a
  // mismatch means the caller bumped the featurizer mid-flight and the row
  // may be stale — refuse loudly rather than poison the cache.
  LQO_CHECK_EQ(version, version_)
      << "FeatureCache::Insert under a stale featurizer version";
  if (slots_.find(key) != slots_.end()) return;  // first writer wins
  if (slots_.size() >= max_rows_) {
    // Rotate generations: current becomes previous (still servable), the
    // old previous is dropped. Working sets up to 2 * max_rows keep
    // hitting instead of thrashing through wholesale clears.
    rows_prev_ = std::move(rows_);
    slots_prev_ = std::move(slots_);
    rows_.Reset(dim_);
    slots_.clear();
    stats_.generation_evictions += 1;
  }
  slots_.emplace(key, rows_.rows());
  rows_.AddRow(std::span<const double>(row, dim_));
}

void FeatureCache::Clear() {
  slots_.clear();
  slots_prev_.clear();
  rows_.Reset(dim_);
  rows_prev_.Reset(dim_);
}

FeatureCacheStats FeatureCache::Stats() const {
  FeatureCacheStats stats = stats_;
  stats.rows = slots_.size() + slots_prev_.size();
  return stats;
}

}  // namespace lqo
