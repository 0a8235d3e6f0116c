#include "ml/compact_forest.h"

#include <utility>

#include "common/logging.h"

namespace lqo {

void CompactForest::Pack(std::span<const RegressionTree> trees) {
  size_t total = 0;
  for (const RegressionTree& tree : trees) total += tree.num_nodes();
  feature_.assign(total, kLeaf);
  threshold_.assign(total, 0.0f);
  child_.assign(total, 0);
  leaf_value_.clear();
  root_.clear();
  root_.reserve(trees.size());

  // Per tree: breadth-first renumbering that allocates both children of an
  // interior node adjacently, so one int32 addresses the pair (left at
  // child_, right at child_ + 1). The walk order is a pure function of the
  // source tree, so packing is deterministic.
  std::vector<std::pair<int32_t, size_t>> worklist;  // (source node, slot)
  size_t base = 0;
  for (const RegressionTree& tree : trees) {
    LQO_CHECK(tree.fitted());
    std::span<const int32_t> feature = tree.node_features();
    std::span<const double> threshold = tree.node_thresholds();
    std::span<const double> value = tree.node_values();
    std::span<const int32_t> left = tree.node_left();
    std::span<const int32_t> right = tree.node_right();

    root_.push_back(static_cast<int32_t>(base));
    size_t next_slot = base + 1;  // root occupies `base`
    worklist.clear();
    worklist.emplace_back(0, base);
    // The worklist grows at the tail while the head advances: plain FIFO
    // breadth-first order.
    for (size_t head = 0; head < worklist.size(); ++head) {
      auto [node, slot] = worklist[head];
      size_t n = static_cast<size_t>(node);
      int32_t f = feature[n];
      if (f < 0) {
        child_[slot] = static_cast<int32_t>(leaf_value_.size());
        leaf_value_.push_back(value[n]);
        continue;
      }
      float q = static_cast<float>(threshold[n]);
      // Build-time quantization contract: the double array already holds a
      // float-representable value, so the narrowing is exact.
      LQO_CHECK_EQ(static_cast<double>(q), threshold[n])
          << "threshold not quantized at build time";
      feature_[slot] = static_cast<uint32_t>(f);
      threshold_[slot] = q;
      child_[slot] = static_cast<int32_t>(next_slot);
      worklist.emplace_back(left[n], next_slot);
      worklist.emplace_back(right[n], next_slot + 1);
      next_slot += 2;
    }
    base += feature.size();
    LQO_CHECK_EQ(next_slot, base);
  }
}

void CompactForest::PredictRangeTree(size_t t, const FeatureMatrix& x,
                                     size_t begin, size_t end,
                                     double* out) const {
  for (size_t r = begin; r < end; ++r) {
    const double* row = x.Row(r);
    size_t index = static_cast<size_t>(root_[t]);
    for (uint32_t f = feature_[index]; f != kLeaf; f = feature_[index]) {
      // Widening the float threshold back to double reproduces the exact
      // value the SoA array stores (build-time quantization), so this is
      // the same comparison RegressionTree::PredictRow performs.
      bool go_left = row[f] <= static_cast<double>(threshold_[index]);
      index = static_cast<size_t>(child_[index]) + (go_left ? 0 : 1);
    }
    out[r - begin] = leaf_value_[static_cast<size_t>(child_[index])];
  }
}

}  // namespace lqo
