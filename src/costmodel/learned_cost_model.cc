#include "costmodel/learned_cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace lqo {
namespace {

double Log1p(double v) { return std::log(std::max(v, 0.0) + 1.0); }

// Bottom-up traversal collecting (node, depth) pairs in the same order the
// executor emits NodeProfiles (children before parents, left before right).
void CollectBottomUp(const PlanNode& node, int depth,
                     std::vector<std::pair<const PlanNode*, int>>* out) {
  if (node.kind == PlanNode::Kind::kJoin) {
    CollectBottomUp(*node.left, depth + 1, out);
    CollectBottomUp(*node.right, depth + 1, out);
  }
  out->emplace_back(&node, depth);
}

}  // namespace

std::vector<std::vector<double>> PlanNodeFeatures(const PhysicalPlan& plan,
                                                  const StatsCatalog& stats) {
  std::vector<std::pair<const PlanNode*, int>> nodes;
  CollectBottomUp(*plan.root, 0, &nodes);
  std::vector<std::vector<double>> features;
  features.reserve(nodes.size());
  for (const auto& [node, depth] : nodes) {
    double left = 0, right = 0;
    if (node->kind == PlanNode::Kind::kJoin) {
      left = std::max(node->left->estimated_cardinality, 0.0);
      right = std::max(node->right->estimated_cardinality, 0.0);
    } else {
      const std::string& table =
          plan.query->tables()[static_cast<size_t>(node->table_index)]
              .table_name;
      left = static_cast<double>(stats.Of(table).row_count);
    }
    features.push_back(PlanFeaturizer::NodeFeatures(
        node->kind, node->algorithm, left, right,
        std::max(node->estimated_cardinality, 0.0), depth));
  }
  return features;
}

void AppendPlanNodeFeatures(const PhysicalPlan& plan,
                            const StatsCatalog& stats, FeatureMatrix* out) {
  LQO_CHECK(out != nullptr);
  LQO_CHECK_EQ(out->cols(), PlanFeaturizer::kNodeDim);
  std::vector<std::pair<const PlanNode*, int>> nodes;
  CollectBottomUp(*plan.root, 0, &nodes);
  out->Reserve(out->rows() + nodes.size());
  for (const auto& [node, depth] : nodes) {
    double left = 0, right = 0;
    if (node->kind == PlanNode::Kind::kJoin) {
      left = std::max(node->left->estimated_cardinality, 0.0);
      right = std::max(node->right->estimated_cardinality, 0.0);
    } else {
      const std::string& table =
          plan.query->tables()[static_cast<size_t>(node->table_index)]
              .table_name;
      left = static_cast<double>(stats.Of(table).row_count);
    }
    PlanFeaturizer::NodeFeaturesInto(
        node->kind, node->algorithm, left, right,
        std::max(node->estimated_cardinality, 0.0), depth,
        out->AppendRow());
  }
}

CostSample MakeCostSample(const PhysicalPlan& plan,
                          const ExecutionResult& result,
                          const StatsCatalog& stats) {
  CostSample sample;
  sample.plan_features = PlanFeaturizer::Featurize(plan);
  sample.node_features = PlanNodeFeatures(plan, stats);
  sample.time_units = result.time_units;
  LQO_CHECK_EQ(sample.node_features.size(), result.node_profiles.size())
      << "plan/profile node count mismatch";
  for (const NodeProfile& profile : result.node_profiles) {
    sample.node_times.push_back(profile.time_units);
  }
  return sample;
}

LearnedPlanCostModel::LearnedPlanCostModel(ModelType type) : type_(type) {
  MlpOptions options;
  options.hidden_layers = {64, 32};
  options.epochs = 120;
  options.seed = 91;
  mlp_ = Mlp(options);
}

void LearnedPlanCostModel::Train(const std::vector<CostSample>& samples) {
  LQO_CHECK(!samples.empty());
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (const CostSample& sample : samples) {
    x.push_back(sample.plan_features);
    y.push_back(Log1p(sample.time_units));
  }
  if (type_ == ModelType::kGbdt) {
    gbdt_.Fit(x, y);
  } else {
    mlp_.Fit(x, y);
  }
  trained_ = true;
}

double LearnedPlanCostModel::PredictFromFeatures(
    const std::vector<double>& features) const {
  LQO_CHECK(trained_);
  double log_time = type_ == ModelType::kGbdt ? gbdt_.Predict(features)
                                              : mlp_.Predict(features);
  log_time = std::clamp(log_time, 0.0, 50.0);
  return std::exp(log_time) - 1.0;
}

double LearnedPlanCostModel::PredictTime(const PhysicalPlan& plan) const {
  return PredictFromFeatures(PlanFeaturizer::Featurize(plan));
}

std::string LearnedPlanCostModel::Name() const {
  return type_ == ModelType::kGbdt ? "learned_gbdt" : "learned_mlp";
}

std::vector<double> CalibratedCostModel::WorkTerms(const PhysicalPlan& plan) {
  double scan_rows = 0, hash_build = 0, hash_probe = 0, nlj_pairs = 0;
  double sort_work = 0, merge_rows = 0, output_rows = 0;
  VisitPlanBottomUp(*plan.root, [&](const PlanNode& node) {
    double card = std::max(node.estimated_cardinality, 0.0);
    if (node.kind == PlanNode::Kind::kScan) {
      scan_rows += card;
      return;
    }
    double left = std::max(node.left->estimated_cardinality, 0.0);
    double right = std::max(node.right->estimated_cardinality, 0.0);
    output_rows += card;
    switch (node.algorithm) {
      case JoinAlgorithm::kHashJoin:
        hash_build += right;
        hash_probe += left;
        break;
      case JoinAlgorithm::kNestedLoopJoin:
        nlj_pairs += left * right;
        break;
      case JoinAlgorithm::kMergeJoin:
        sort_work += left * std::log2(std::max(left, 2.0)) +
                     right * std::log2(std::max(right, 2.0));
        merge_rows += left + right;
        break;
    }
  });
  return {scan_rows, hash_build, hash_probe, nlj_pairs,
          sort_work, merge_rows, output_rows};
}

void CalibratedCostModel::Train(const std::vector<CostSample>& samples) {
  LQO_CHECK(!samples.empty());
  // The calibration needs the raw work terms; plan_features do not keep
  // them, so CostSample stores node features from which terms could be
  // reconstructed — instead callers train via executed plans; here we use
  // the node-local features to rebuild approximate terms.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (const CostSample& sample : samples) {
    // Reconstruct work terms from node features:
    // [scan,hash,nlj,merge one-hot, log l, log r, log out, logl+logr, depth]
    double scan_rows = 0, hash_build = 0, hash_probe = 0, nlj_pairs = 0;
    double sort_work = 0, merge_rows = 0, output_rows = 0;
    for (const std::vector<double>& f : sample.node_features) {
      double l = std::exp(f[4]) - 1.0;
      double r = std::exp(f[5]) - 1.0;
      double out = std::exp(f[6]) - 1.0;
      if (f[0] > 0.5) {
        scan_rows += l;
      } else {
        output_rows += out;
        if (f[1] > 0.5) {
          hash_build += r;
          hash_probe += l;
        } else if (f[2] > 0.5) {
          nlj_pairs += l * r;
        } else {
          sort_work += l * std::log2(std::max(l, 2.0)) +
                       r * std::log2(std::max(r, 2.0));
          merge_rows += l + r;
        }
      }
    }
    x.push_back({scan_rows, hash_build, hash_probe, nlj_pairs, sort_work,
                 merge_rows, output_rows});
    y.push_back(sample.time_units);
  }
  regression_ = RidgeRegression(1e-2);
  LQO_CHECK(regression_.Fit(x, y).ok());
  trained_ = true;
}

double CalibratedCostModel::PredictTime(const PhysicalPlan& plan) const {
  LQO_CHECK(trained_);
  return std::max(0.0, regression_.Predict(WorkTerms(plan)));
}

void ZeroShotCostModel::Train(const std::vector<CostSample>& samples) {
  LQO_CHECK(!samples.empty());
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (const CostSample& sample : samples) {
    LQO_CHECK_EQ(sample.node_features.size(), sample.node_times.size());
    for (size_t i = 0; i < sample.node_features.size(); ++i) {
      x.push_back(sample.node_features[i]);
      y.push_back(Log1p(sample.node_times[i]));
    }
  }
  GbdtOptions options;
  options.num_trees = 150;
  options.tree.max_depth = 5;
  node_model_ = GradientBoostedTrees(options);
  node_model_.Fit(x, y);
  trained_ = true;
}

double ZeroShotCostModel::PredictTime(const PhysicalPlan& plan,
                                      const StatsCatalog& stats) const {
  LQO_CHECK(trained_);
  // One node-feature matrix and one batched GBDT pass over every plan
  // node; the serial clamp/exp/sum follows the scalar loop's bottom-up
  // node order, so the total is bit-identical.
  FeatureMatrix features(PlanFeaturizer::kNodeDim);
  AppendPlanNodeFeatures(plan, stats, &features);
  std::vector<double> node_log_times(features.rows());
  node_model_.PredictBatch(features, node_log_times);
  double total = 0.0;
  for (double log_time : node_log_times) {
    total += std::exp(std::clamp(log_time, 0.0, 50.0)) - 1.0;
  }
  return total;
}

}  // namespace lqo
