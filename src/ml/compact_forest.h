#ifndef LQO_ML_COMPACT_FOREST_H_
#define LQO_ML_COMPACT_FOREST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.h"
#include "ml/tree.h"

namespace lqo {

/// Compact quantized node layout: the one batch-inference layout of every
/// RandomForest and GradientBoostedTrees (see DESIGN.md "Inference path").
/// Fit() packs the ensemble's trees here; PredictBatch reads only these
/// arenas, while scalar Predict walks the RegressionTree SoA arrays.
///
/// The SoA arrays cost 28 bytes/node (int32 feature + double threshold +
/// double value + two int32 children). This layout packs every tree of an
/// ensemble into shared arenas at 12 bytes/node plus 8 bytes per leaf:
///
///   feature_[n]    uint32  split feature id; UINT32_MAX marks a leaf
///   threshold_[n]  float   split threshold (quantized at *build* time)
///   child_[n]      int32   interior: arena index of the left child, with
///                          the right child packed adjacently at child+1;
///                          leaf: index into leaf_value_
///   leaf_value_[l] double  leaf predictions, full precision
///   root_[t]       int32   arena index of tree t's root
///
/// Predictions are bit-for-bit identical to the source RegressionTrees:
/// RegressionTree::BuildNode quantizes thresholds to float before
/// partitioning, so the double SoA arrays only ever hold float-representable
/// thresholds and `row[f] <= threshold` compares identically against either
/// layout. Leaf values stay double, so the returned prediction is the exact
/// value the scalar path returns. Enforced by tests/ml_test.cc and the
/// CheckBatchMatchesScalar gate in bench_micro_components.
class CompactForest {
 public:
  /// Sentinel feature id marking a leaf node.
  static constexpr uint32_t kLeaf = UINT32_MAX;

  /// Packs `trees` (children-adjacent breadth-first per tree) into the
  /// shared arenas, replacing any previous contents. Every tree must be
  /// fitted.
  void Pack(std::span<const RegressionTree> trees);

  /// Arena bytes actually paid by this ensemble (feature + threshold +
  /// child arenas plus the leaf-value and root arenas).
  size_t bytes() const {
    return feature_.size() * (sizeof(uint32_t) + sizeof(float) +
                              sizeof(int32_t)) +
           leaf_value_.size() * sizeof(double) +
           root_.size() * sizeof(int32_t);
  }

  /// Serial kernel over rows [begin, end) of `x` for tree `t`, writing
  /// out[i - begin]. Ensemble batch kernels call this per (tree, morsel).
  void PredictRangeTree(size_t t, const FeatureMatrix& x, size_t begin,
                        size_t end, double* out) const;

 private:
  // Shared arenas across all trees (layout documented above).
  std::vector<uint32_t> feature_;
  std::vector<float> threshold_;
  std::vector<int32_t> child_;
  std::vector<double> leaf_value_;
  std::vector<int32_t> root_;
};

}  // namespace lqo

#endif  // LQO_ML_COMPACT_FOREST_H_
