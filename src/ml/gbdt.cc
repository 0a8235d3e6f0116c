#include "ml/gbdt.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace lqo {

void GradientBoostedTrees::Fit(const std::vector<std::vector<double>>& rows,
                               const std::vector<double>& targets) {
  LQO_CHECK(!rows.empty());
  LQO_CHECK_EQ(rows.size(), targets.size());
  trees_.clear();

  base_prediction_ =
      std::accumulate(targets.begin(), targets.end(), 0.0) /
      static_cast<double>(targets.size());

  std::vector<double> residuals(targets.size());
  std::vector<double> current(targets.size(), base_prediction_);
  Rng rng(options_.seed);

  for (int t = 0; t < options_.num_trees; ++t) {
    for (size_t i = 0; i < targets.size(); ++i) {
      residuals[i] = targets[i] - current[i];
    }
    // Row subsample.
    std::vector<size_t> indices;
    if (options_.subsample < 1.0) {
      size_t k = std::max<size_t>(
          1, static_cast<size_t>(options_.subsample *
                                 static_cast<double>(rows.size())));
      indices = rng.SampleWithoutReplacement(rows.size(), k);
    }
    // Boosting is inherently sequential across trees; the parallelism here
    // is inside Fit (per-feature split search), which writes
    // index-addressed slots.
    RegressionTree tree;
    tree.Fit(rows, residuals, options_.tree, indices, nullptr);
    for (size_t i = 0; i < rows.size(); ++i) {
      current[i] += options_.learning_rate * tree.Predict(rows[i]);
    }
    trees_.push_back(std::move(tree));
  }
  fitted_ = true;
  compact_.Pack(trees_);
}

double GradientBoostedTrees::Predict(const std::vector<double>& row) const {
  LQO_CHECK(fitted_);
  double y = base_prediction_;
  for (const RegressionTree& tree : trees_) {
    y += options_.learning_rate * tree.Predict(row);
  }
  return y;
}

void GradientBoostedTrees::PredictBatch(const FeatureMatrix& x,
                                        std::span<double> out) const {
  LQO_CHECK(fitted_);
  LQO_CHECK_EQ(x.rows(), out.size());
  if (x.empty()) return;
  ScopedInferenceTimer timer(&inference_, x.rows());

  // Morsel-chunked over rows; each morsel owns its slice of `out`. Within
  // a morsel the trees run tree-major over the compact arenas (each tree's
  // nodes stay hot across the morsel) while every row accumulates
  // base + lr * tree_t in boosting order — the scalar loop's additions, and
  // the same comparisons by the build-time quantization contract.
  constexpr size_t kMorselRows = 256;
  size_t morsels = (x.rows() + kMorselRows - 1) / kMorselRows;
  auto run_morsel = [&](size_t m) {
    size_t begin = m * kMorselRows;
    size_t end = std::min(x.rows(), begin + kMorselRows);
    size_t n = end - begin;
    std::vector<double> tree_out(n);
    for (size_t i = 0; i < n; ++i) out[begin + i] = base_prediction_;
    for (size_t t = 0; t < trees_.size(); ++t) {
      compact_.PredictRangeTree(t, x, begin, end, tree_out.data());
      for (size_t i = 0; i < n; ++i) {
        out[begin + i] += options_.learning_rate * tree_out[i];
      }
    }
  };
  if (morsels <= 1) {
    run_morsel(0);
  } else {
    ParallelFor(morsels, run_morsel);
  }
}

}  // namespace lqo
