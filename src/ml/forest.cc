#include "ml/forest.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace lqo {

void RandomForest::Fit(const std::vector<std::vector<double>>& rows,
                       const std::vector<double>& targets) {
  LQO_CHECK(!rows.empty());
  LQO_CHECK_EQ(rows.size(), targets.size());
  trees_.clear();

  TreeOptions tree_options = options_.tree;
  if (tree_options.max_features <= 0) {
    // Default: sqrt(F), the classic forest heuristic.
    tree_options.max_features = std::max(
        1, static_cast<int>(std::sqrt(static_cast<double>(rows[0].size()))));
  }

  // Trees are independent given per-tree RNG streams: tree t draws its
  // bootstrap and feature subsets from DeriveSeed(seed, t), so the ensemble
  // is identical at any thread count (and ParallelMap keeps tree order).
  trees_ = ParallelMap(
      static_cast<size_t>(options_.num_trees), [&](size_t t) {
        Rng rng(DeriveSeed(options_.seed, t));
        std::vector<size_t> indices(rows.size());
        for (size_t i = 0; i < rows.size(); ++i) {
          indices[i] = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(rows.size()) - 1));
        }
        RegressionTree tree;
        tree.Fit(rows, targets, tree_options, indices, &rng);
        return tree;
      });
  compact_.Pack(trees_);
}

size_t RandomForest::total_nodes() const {
  size_t total = 0;
  for (const RegressionTree& tree : trees_) total += tree.num_nodes();
  return total;
}

double RandomForest::Predict(const std::vector<double>& row) const {
  double mean, stddev;
  PredictWithUncertainty(row, &mean, &stddev);
  return mean;
}

void RandomForest::PredictWithUncertainty(const std::vector<double>& row,
                                          double* mean,
                                          double* stddev) const {
  LQO_CHECK(fitted());
  double sum = 0.0, sum_sq = 0.0;
  for (const RegressionTree& tree : trees_) {
    double y = tree.Predict(row);
    sum += y;
    sum_sq += y * y;
  }
  double n = static_cast<double>(trees_.size());
  *mean = sum / n;
  double var = sum_sq / n - (*mean) * (*mean);
  *stddev = std::sqrt(std::max(0.0, var));
}

void RandomForest::PredictBatch(const FeatureMatrix& x,
                                std::span<double> out) const {
  PredictBatchWithUncertainty(x, out, {});
}

void RandomForest::PredictBatchWithUncertainty(
    const FeatureMatrix& x, std::span<double> means,
    std::span<double> stddevs) const {
  LQO_CHECK(fitted());
  LQO_CHECK_EQ(x.rows(), means.size());
  if (!stddevs.empty()) LQO_CHECK_EQ(x.rows(), stddevs.size());
  if (x.empty()) return;
  ScopedInferenceTimer timer(&inference_, x.rows());

  // Morsel-chunked over rows; each morsel owns index-addressed slices of
  // the outputs. Within a morsel, trees run tree-major over the whole
  // morsel (node buffers stay hot across rows) while each row's sum and
  // sum-of-squares accumulate in ensemble order — the exact additions of
  // the scalar loop, so results match at any thread count. The per-tree
  // kernel reads the compact float/uint32 arenas; its comparisons (and
  // therefore the outputs) equal the SoA walk's by the build-time
  // quantization contract.
  constexpr size_t kMorselRows = 256;
  size_t morsels = (x.rows() + kMorselRows - 1) / kMorselRows;
  auto run_morsel = [&](size_t m) {
    size_t begin = m * kMorselRows;
    size_t end = std::min(x.rows(), begin + kMorselRows);
    size_t n = end - begin;
    std::vector<double> tree_out(n);
    std::vector<double> sum(n, 0.0);
    std::vector<double> sum_sq(n, 0.0);
    for (size_t t = 0; t < trees_.size(); ++t) {
      compact_.PredictRangeTree(t, x, begin, end, tree_out.data());
      for (size_t i = 0; i < n; ++i) {
        double y = tree_out[i];
        sum[i] += y;
        sum_sq[i] += y * y;
      }
    }
    double num_trees = static_cast<double>(trees_.size());
    for (size_t i = 0; i < n; ++i) {
      double mean = sum[i] / num_trees;
      means[begin + i] = mean;
      if (!stddevs.empty()) {
        double var = sum_sq[i] / num_trees - mean * mean;
        stddevs[begin + i] = std::sqrt(std::max(0.0, var));
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
