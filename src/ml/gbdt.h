#ifndef LQO_ML_GBDT_H_
#define LQO_ML_GBDT_H_

#include <cstddef>
#include <span>
#include <vector>

#include "ml/compact_forest.h"
#include "ml/inference_stats.h"
#include "ml/tree.h"

namespace lqo {

/// Options for gradient-boosted regression trees.
struct GbdtOptions {
  int num_trees = 120;
  double learning_rate = 0.1;
  TreeOptions tree;
  /// Row subsampling per tree (stochastic gradient boosting); 1.0 = all.
  double subsample = 0.8;
  uint64_t seed = 17;

  GbdtOptions() { tree.max_depth = 4; }
};

/// Gradient-boosted trees with squared loss — the XGBoost-style lightweight
/// model of Dutt et al. [9,10], reused as a plan-cost model and as the
/// UAE-style hybrid correction model.
class GradientBoostedTrees {
 public:
  explicit GradientBoostedTrees(GbdtOptions options = GbdtOptions())
      : options_(options) {}

  void Fit(const std::vector<std::vector<double>>& rows,
           const std::vector<double>& targets);

  double Predict(const std::vector<double>& row) const;

  /// Batch prediction over all rows of `x`, bit-for-bit identical to
  /// per-row Predict. Served from the compact arenas packed by Fit().
  /// Morsel-parallel; within a morsel the boosted trees run tree-major,
  /// each row accumulating base + lr * tree_t in boosting order — the
  /// scalar loop's additions — at any LQO_THREADS.
  void PredictBatch(const FeatureMatrix& x, std::span<double> out) const;

  /// Batched-inference counters (rows scored via PredictBatch).
  InferenceStatsSnapshot Stats() const { return inference_.Snapshot(); }

  bool fitted() const { return fitted_; }
  size_t num_trees() const { return trees_.size(); }

 private:
  GbdtOptions options_;
  double base_prediction_ = 0.0;
  std::vector<RegressionTree> trees_;
  /// Packed mirror of trees_ (scalar Predict walks trees_, PredictBatch
  /// reads this).
  CompactForest compact_;
  bool fitted_ = false;
  mutable InferenceCounters inference_;
};

}  // namespace lqo

#endif  // LQO_ML_GBDT_H_
