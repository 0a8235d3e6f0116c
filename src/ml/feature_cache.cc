#include "ml/feature_cache.h"

#include <cstring>
#include <mutex>

#include "common/logging.h"

namespace lqo {

FeatureCache::FeatureCache(size_t dim, size_t max_rows)
    : dim_(dim), max_rows_(max_rows), rows_(dim) {
  LQO_CHECK_GT(dim, 0u);
  LQO_CHECK_GT(max_rows, 0u);
}

bool FeatureCache::Lookup(uint64_t key, uint32_t version, double* out) {
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    if (version == version_) {
      auto it = slots_.find(key);
      if (it != slots_.end()) {
        std::memcpy(out, rows_.Row(it->second), dim_ * sizeof(double));
        hits_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      // Fall through to the previous generation. No promotion: moving the
      // row would need the exclusive lock, and rotated-out rows are served
      // read-only until the next rotation drops them.
      auto prev = slots_prev_.find(key);
      if (prev != slots_prev_.end()) {
        std::memcpy(out, rows_prev_.Row(prev->second), dim_ * sizeof(double));
        hits_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  // Version changed: drop every resident row before reporting the miss so a
  // stale-featurizer row can never be served. Re-check under the exclusive
  // lock — another thread may have already adopted the new version.
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    if (version != version_) {
      ClearLocked();
      version_ = version;
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    auto it = slots_.find(key);
    if (it != slots_.end()) {
      std::memcpy(out, rows_.Row(it->second), dim_ * sizeof(double));
      hits_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    auto prev = slots_prev_.find(key);
    if (prev != slots_prev_.end()) {
      std::memcpy(out, rows_prev_.Row(prev->second), dim_ * sizeof(double));
      hits_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void FeatureCache::Insert(uint64_t key, uint32_t version, const double* row) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
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
    generation_evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  slots_.emplace(key, rows_.rows());
  rows_.AddRow(std::span<const double>(row, dim_));
}

void FeatureCache::ClearLocked() {
  slots_.clear();
  slots_prev_.clear();
  rows_.Reset(dim_);
  rows_prev_.Reset(dim_);
}

FeatureCacheStats FeatureCache::Stats() const {
  FeatureCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.generation_evictions =
      generation_evictions_.load(std::memory_order_relaxed);
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    stats.rows = slots_.size() + slots_prev_.size();
  }
  return stats;
}

}  // namespace lqo
