#ifndef LQO_ML_TREE_H_
#define LQO_ML_TREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace lqo {

/// Options shared by the tree-based regressors.
struct TreeOptions {
  int max_depth = 6;
  int min_samples_leaf = 4;
  /// Features considered per split; <= 0 means all features.
  int max_features = -1;
};

/// A CART regression tree with exact variance-reduction splits. Building
/// block for the random forest and GBDT, i.e. the "tree-based ensembles /
/// XGBoost" row of the paper's Table 1 (Dutt et al. [10], [9]).
///
/// Nodes are stored structure-of-arrays (parallel feature / threshold /
/// value / left / right buffers). Training and scalar Predict use them;
/// batch inference reads the ensembles' compact arenas instead.
class RegressionTree {
 public:
  /// Fits on the rows selected by `indices` (all rows if empty). When
  /// `rng` is non-null and options.max_features > 0, each split considers a
  /// random feature subset (for forests).
  void Fit(const std::vector<std::vector<double>>& rows,
           const std::vector<double>& targets, const TreeOptions& options,
           const std::vector<size_t>& indices = {}, Rng* rng = nullptr);

  double Predict(const std::vector<double>& row) const;

  bool fitted() const { return !feature_.empty(); }
  size_t num_nodes() const { return feature_.size(); }

  /// Read-only views of the SoA node arrays. Ensembles pack them into the
  /// compact quantized layout (ml/compact_forest.h) that serves every batch
  /// prediction. Thresholds are quantized to float at build time, so every
  /// stored double is exactly float representable (see BuildNode).
  std::span<const int32_t> node_features() const { return feature_; }
  std::span<const double> node_thresholds() const { return threshold_; }
  std::span<const double> node_values() const { return value_; }
  std::span<const int32_t> node_left() const { return left_; }
  std::span<const int32_t> node_right() const { return right_; }

 private:
  /// Appends a leaf node with `value` and returns its index.
  int AddNode(double value);

  int BuildNode(const std::vector<std::vector<double>>& rows,
                const std::vector<double>& targets,
                std::vector<size_t>& indices, size_t begin, size_t end,
                int depth, const TreeOptions& options, Rng* rng);

  // Structure-of-arrays node storage. A node is a leaf iff feature < 0;
  // interior nodes route row[feature] <= threshold to left, else right.
  std::vector<int32_t> feature_;
  std::vector<double> threshold_;
  std::vector<double> value_;
  std::vector<int32_t> left_;
  std::vector<int32_t> right_;
};

}  // namespace lqo

#endif  // LQO_ML_TREE_H_
