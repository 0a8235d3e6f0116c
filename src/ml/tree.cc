#include "ml/tree.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace lqo {
namespace {

double MeanOf(const std::vector<double>& targets,
              const std::vector<size_t>& indices, size_t begin, size_t end) {
  double sum = 0.0;
  for (size_t i = begin; i < end; ++i) sum += targets[indices[i]];
  return sum / static_cast<double>(end - begin);
}

}  // namespace

void RegressionTree::Fit(const std::vector<std::vector<double>>& rows,
                         const std::vector<double>& targets,
                         const TreeOptions& options,
                         const std::vector<size_t>& indices, Rng* rng) {
  LQO_CHECK(!rows.empty());
  LQO_CHECK_EQ(rows.size(), targets.size());
  feature_.clear();
  threshold_.clear();
  value_.clear();
  left_.clear();
  right_.clear();
  std::vector<size_t> work = indices;
  if (work.empty()) {
    work.resize(rows.size());
    std::iota(work.begin(), work.end(), 0);
  }
  BuildNode(rows, targets, work, 0, work.size(), 0, options, rng);
}

int RegressionTree::AddNode(double value) {
  int index = static_cast<int>(feature_.size());
  feature_.push_back(-1);
  threshold_.push_back(0.0);
  value_.push_back(value);
  left_.push_back(-1);
  right_.push_back(-1);
  return index;
}

int RegressionTree::BuildNode(const std::vector<std::vector<double>>& rows,
                              const std::vector<double>& targets,
                              std::vector<size_t>& indices, size_t begin,
                              size_t end, int depth,
                              const TreeOptions& options, Rng* rng) {
  LQO_CHECK_LT(begin, end);
  int node_index = AddNode(MeanOf(targets, indices, begin, end));

  size_t n = end - begin;
  if (depth >= options.max_depth ||
      n < 2 * static_cast<size_t>(options.min_samples_leaf)) {
    return node_index;
  }

  size_t num_features = rows[0].size();
  // Candidate features (random subset for forests).
  std::vector<size_t> features(num_features);
  std::iota(features.begin(), features.end(), 0);
  if (rng != nullptr && options.max_features > 0 &&
      static_cast<size_t>(options.max_features) < num_features) {
    rng->Shuffle(features);
    features.resize(static_cast<size_t>(options.max_features));
  }

  // Exact best split by variance reduction (equivalently: maximize
  // sum_left^2/n_left + sum_right^2/n_right). Features are scored
  // independently (parallel when the node is large enough) and reduced
  // serially in candidate order, which reproduces the serial loop's
  // first-wins tie-breaking bit for bit.
  double total_sum = 0.0;
  for (size_t i = begin; i < end; ++i) total_sum += targets[indices[i]];

  struct FeatureSplit {
    double score = -std::numeric_limits<double>::infinity();
    double threshold = 0.0;
  };
  auto eval_feature = [&](size_t f) {
    FeatureSplit split;
    std::vector<std::pair<double, double>> values(n);  // (feature, target)
    for (size_t i = 0; i < n; ++i) {
      size_t row = indices[begin + i];
      values[i] = {rows[row][f], targets[row]};
    }
    std::sort(values.begin(), values.end());
    if (values.front().first == values.back().first) return split;  // const.

    double left_sum = 0.0;
    size_t left_n = 0;
    for (size_t i = 0; i + 1 < n; ++i) {
      left_sum += values[i].second;
      ++left_n;
      if (values[i].first == values[i + 1].first) continue;  // mid-run.
      size_t right_n = n - left_n;
      if (left_n < static_cast<size_t>(options.min_samples_leaf) ||
          right_n < static_cast<size_t>(options.min_samples_leaf)) {
        continue;
      }
      double right_sum = total_sum - left_sum;
      double score = left_sum * left_sum / static_cast<double>(left_n) +
                     right_sum * right_sum / static_cast<double>(right_n);
      if (score > split.score) {
        split.score = score;
        split.threshold = (values[i].first + values[i + 1].first) / 2.0;
      }
    }
    return split;
  };

  // Fanning out pays only when this node sorts enough (row, feature) cells;
  // the cutoff depends on sizes alone, so it cannot affect results.
  constexpr size_t kParallelCells = 8192;
  std::vector<FeatureSplit> splits;
  if (features.size() > 1 && n * features.size() >= kParallelCells) {
    splits = ParallelMap(features.size(),
                         [&](size_t i) { return eval_feature(features[i]); });
  } else {
    splits.reserve(features.size());
    for (size_t f : features) splits.push_back(eval_feature(f));
  }

  double best_score = -std::numeric_limits<double>::infinity();
  int best_feature = -1;
  double best_threshold = 0.0;
  for (size_t i = 0; i < features.size(); ++i) {
    if (splits[i].score > best_score) {
      best_score = splits[i].score;
      best_feature = static_cast<int>(features[i]);
      best_threshold = splits[i].threshold;
    }
  }

  if (best_feature < 0) return node_index;

  // Quantize the threshold to float *before* partitioning, so the split the
  // tree trains on is exactly the split the compact quantized layout
  // (ml/compact_forest.h) serves to every ensemble PredictBatch: every
  // stored double threshold is float representable, making
  // `row[f] <= threshold` bitwise identical whether the comparison reads
  // the double SoA array (scalar Predict) or the float compact array.
  // Degenerate quantized splits (all rows on one side) fall into the
  // existing mid == begin/end guard below.
  best_threshold = static_cast<double>(static_cast<float>(best_threshold));

  // Partition indices[begin,end) by the chosen split.
  auto mid_it = std::partition(
      indices.begin() + static_cast<long>(begin),
      indices.begin() + static_cast<long>(end), [&](size_t row) {
        return rows[row][static_cast<size_t>(best_feature)] <= best_threshold;
      });
  size_t mid = static_cast<size_t>(mid_it - indices.begin());
  if (mid == begin || mid == end) return node_index;  // degenerate.

  int left = BuildNode(rows, targets, indices, begin, mid, depth + 1, options,
                       rng);
  int right =
      BuildNode(rows, targets, indices, mid, end, depth + 1, options, rng);
  size_t node = static_cast<size_t>(node_index);
  feature_[node] = best_feature;
  threshold_[node] = best_threshold;
  left_[node] = left;
  right_[node] = right;
  return node_index;
}

double RegressionTree::Predict(const std::vector<double>& row) const {
  LQO_CHECK(fitted());
  size_t index = 0;
  while (true) {
    int32_t f = feature_[index];
    if (f < 0) return value_[index];
    bool go_left = row[static_cast<size_t>(f)] <= threshold_[index];
    index = static_cast<size_t>(go_left ? left_[index] : right_[index]);
  }
}

}  // namespace lqo
