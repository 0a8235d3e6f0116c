#ifndef LQO_ML_FEATURE_CACHE_H_
#define LQO_ML_FEATURE_CACHE_H_

#include <cstdint>
#include <unordered_map>

#include "ml/dataset.h"

namespace lqo {

/// Counters of one FeatureCache since construction; hits + misses == number
/// of Lookup() calls. `rows` is a gauge filled in by Stats().
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
/// A FeatureCache is single-threaded: its callers (learned-optimizer
/// planning and training, query-driven estimator training) are serial.
/// Lookup() copies the row out (a span would dangle across a rotation); a
/// miss computes the row and commits it via Insert().
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
/// fall through to the previous generation (no promotion), which means a
/// retrain working set larger than max_rows keeps serving recent rows
/// instead of thrashing through wholesale clears; total residency is
/// bounded by 2 * max_rows. Rotations
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
  /// Wholesale-clears both generations (not counters).
  void Clear();

  const size_t dim_;
  const size_t max_rows_;
  /// Featurizer version the resident rows were computed under.
  uint32_t version_ = 0;
  /// Current-generation row storage; slots_ maps key -> row index. Rows are
  /// append-only between rotations/clears.
  FeatureMatrix rows_;
  /// Previous generation: the last rotated-out row set, still servable.
  FeatureMatrix rows_prev_;
  /// Keys are pre-mixed hashes; identity-hashing avoids a second pass.
  struct IdentityHash {
    size_t operator()(uint64_t h) const { return static_cast<size_t>(h); }
  };
  std::unordered_map<uint64_t, size_t, IdentityHash> slots_;
  std::unordered_map<uint64_t, size_t, IdentityHash> slots_prev_;
  /// Counters only; Stats() fills in `rows`.
  FeatureCacheStats stats_;
};

}  // namespace lqo

#endif  // LQO_ML_FEATURE_CACHE_H_
