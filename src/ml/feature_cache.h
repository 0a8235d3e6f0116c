#ifndef LQO_ML_FEATURE_CACHE_H_
#define LQO_ML_FEATURE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <unordered_map>

#include "common/thread_annotations.h"
#include "ml/dataset.h"

namespace lqo {

/// Counters of one FeatureCache since construction. Under concurrent access
/// the hit/miss split may vary run to run (two threads can miss the same key
/// simultaneously); hits + misses == number of Lookup() calls always holds.
struct FeatureCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Version-mismatch wholesale clears (both generations dropped).
  uint64_t evictions = 0;
  /// Capacity rotations: the current generation filled and became the
  /// previous generation (whose rows stay servable until the next rotation).
  uint64_t generation_evictions = 0;
  /// Rows currently resident (both generations).
  uint64_t rows = 0;
};

/// Plan-signature feature cache — the inference-substrate phase-2 cache (see
/// DESIGN.md "Inference path"). Featurizing a plan walks the whole operator
/// tree and consults the cardinality estimator at every node; across retrain
/// epochs the harness re-featurizes the same (query, candidate plan) pairs
/// over and over. Feature rows are pure functions of the structural key
/// (query KeyHash mixed with the plan signature) given a fixed featurizer
/// version, so they can be computed once and served from here on every later
/// epoch — and shared across optimizers that use the same featurizer.
///
/// Locking protocol: Lookup() copies the row out under a shared lock (a
/// span would dangle across eviction); a miss computes the row outside any
/// lock and commits it via Insert() under an exclusive lock, first writer
/// wins. Because rows are pure functions of the key, racing writers always
/// carry identical rows, so cached results are bit-for-bit identical at any
/// thread count.
///
/// Invalidation: every call carries the featurizer's version stamp. A lookup
/// with a version other than the resident one wholesale-clears the cache
/// (counted in evictions) and adopts the new version — rows from an older
/// featurizer can never be served. Inserting under a stale version is a
/// programming error and CHECK-fails: compute-then-insert must happen under
/// one version, i.e. bump versions only between epochs, not mid-flight.
/// Capacity policy: two generations (current + previous). When the current
/// generation reaches `max_rows` it *rotates* — current becomes previous,
/// the old previous is dropped, and a fresh current starts filling. Lookups
/// fall through to the previous generation (no promotion, so hits stay on
/// the shared-lock path), which means a retrain working set larger than
/// max_rows keeps serving recent rows instead of thrashing through
/// wholesale clears; total residency is bounded by 2 * max_rows. Rotations
/// are counted in generation_evictions, version-mismatch wholesale clears
/// (which drop both generations) in evictions.
class FeatureCache {
 public:
  /// `dim` is the width every row must have; `max_rows` bounds each
  /// generation (see the two-generation capacity policy above — LRU
  /// bookkeeping would cost more than the occasional rotation).
  explicit FeatureCache(size_t dim, size_t max_rows = 1u << 18);

  size_t dim() const { return dim_; }

  /// Copies the cached row for `key` into `out` (dim() doubles) and returns
  /// true, or returns false on a miss. A `version` differing from the
  /// resident one clears the cache first (see invalidation above), which
  /// always misses.
  bool Lookup(uint64_t key, uint32_t version, double* out);

  /// Commits the row for `key` (dim() doubles). First writer wins: a key
  /// that is already resident keeps its existing row (identical by purity).
  /// CHECK-fails if `version` is not the resident version.
  void Insert(uint64_t key, uint32_t version, const double* row);

  FeatureCacheStats Stats() const;

 private:
  /// Wholesale-clears both generations (not counters). Caller holds mutex_
  /// exclusively.
  void ClearLocked() LQO_REQUIRES(mutex_);

  const size_t dim_;
  const size_t max_rows_;
  /// Featurizer version the resident rows were computed under.
  uint32_t version_ LQO_GUARDED_BY(mutex_) = 0;
  /// Current-generation row storage; slots_ maps key -> row index. Rows are
  /// append-only between rotations/clears, so an index handed out under the
  /// lock stays valid until the next exclusive-lock rotation or clear.
  FeatureMatrix rows_ LQO_GUARDED_BY(mutex_);
  /// Previous generation: the last rotated-out row set, still servable.
  FeatureMatrix rows_prev_ LQO_GUARDED_BY(mutex_);
  /// Keys are pre-mixed hashes; identity-hashing avoids a second pass.
  struct IdentityHash {
    size_t operator()(uint64_t h) const { return static_cast<size_t>(h); }
  };
  std::unordered_map<uint64_t, size_t, IdentityHash> slots_
      LQO_GUARDED_BY(mutex_);
  std::unordered_map<uint64_t, size_t, IdentityHash> slots_prev_
      LQO_GUARDED_BY(mutex_);
  // guards: version_, rows_, rows_prev_, slots_, slots_prev_ — shared-lock
  // reads (Lookup hit path), exclusive-lock inserts/rotations/clears; rows
  // are computed outside any lock.
  mutable std::shared_mutex mutex_;
  std::atomic<uint64_t> hits_{0};    // relaxed: monotonic stat only
  std::atomic<uint64_t> misses_{0};  // relaxed: monotonic stat only
  std::atomic<uint64_t> evictions_{0};             // relaxed: monotonic stat
  std::atomic<uint64_t> generation_evictions_{0};  // relaxed: monotonic stat
};

}  // namespace lqo

#endif  // LQO_ML_FEATURE_CACHE_H_
