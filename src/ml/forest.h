#ifndef LQO_ML_FOREST_H_
#define LQO_ML_FOREST_H_

#include <cstddef>
#include <span>
#include <vector>

#include "ml/compact_forest.h"
#include "ml/inference_stats.h"
#include "ml/tree.h"

namespace lqo {

/// Options for the bagged random-forest regressor.
struct ForestOptions {
  int num_trees = 40;
  TreeOptions tree;
  uint64_t seed = 23;

  ForestOptions() {
    tree.max_depth = 10;
    tree.min_samples_leaf = 2;
  }
};

/// Random forest regressor (bootstrap rows + random feature subsets). The
/// "tree-based ensembles" row of Table 1 [10]; its prediction variance also
/// doubles as an uncertainty signal (Fauce-style [33]).
class RandomForest {
 public:
  explicit RandomForest(ForestOptions options = ForestOptions())
      : options_(options) {}

  void Fit(const std::vector<std::vector<double>>& rows,
           const std::vector<double>& targets);

  double Predict(const std::vector<double>& row) const;

  /// Mean and standard deviation across the ensemble's per-tree
  /// predictions; the std is the Fauce-style epistemic uncertainty proxy.
  void PredictWithUncertainty(const std::vector<double>& row, double* mean,
                              double* stddev) const;

  /// Batch ensemble mean over all rows of `x`, bit-for-bit identical to
  /// per-row Predict. Served from the compact arenas packed by Fit().
  /// Morsel-parallel; within a morsel trees are visited in ensemble order
  /// (tree-major), so each row's accumulation order matches the scalar
  /// loop exactly at any LQO_THREADS.
  void PredictBatch(const FeatureMatrix& x, std::span<double> out) const;

  /// Batch mean + stddev, identical to per-row PredictWithUncertainty.
  /// `stddevs` may be empty to skip the uncertainty output.
  void PredictBatchWithUncertainty(const FeatureMatrix& x,
                                   std::span<double> means,
                                   std::span<double> stddevs) const;

  /// Batched-inference counters (rows scored via PredictBatch).
  InferenceStatsSnapshot Stats() const { return inference_.Snapshot(); }

  bool fitted() const { return !trees_.empty(); }

  size_t total_nodes() const;
  /// Arena bytes of the compact layout that serves PredictBatch.
  size_t compact_bytes() const { return compact_.bytes(); }

 private:
  ForestOptions options_;
  std::vector<RegressionTree> trees_;
  /// Packed mirror of trees_ (scalar Predict walks trees_, PredictBatch
  /// reads this).
  CompactForest compact_;
  mutable InferenceCounters inference_;
};

}  // namespace lqo

#endif  // LQO_ML_FOREST_H_
