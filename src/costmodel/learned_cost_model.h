#ifndef LQO_COSTMODEL_LEARNED_COST_MODEL_H_
#define LQO_COSTMODEL_LEARNED_COST_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "costmodel/plan_featurizer.h"
#include "engine/executor.h"
#include "ml/gbdt.h"
#include "ml/linear.h"
#include "ml/mlp.h"
#include "optimizer/table_stats.h"

namespace lqo {

/// One executed plan: its (annotated) features and true simulated latency.
struct CostSample {
  std::vector<double> plan_features;
  /// Node-local features + per-node true time, for the zero-shot model.
  std::vector<std::vector<double>> node_features;
  std::vector<double> node_times;
  double time_units = 0.0;
};

/// Extracts a CostSample from an annotated plan and its execution result.
/// `stats` supplies raw table row counts for scan-node features.
CostSample MakeCostSample(const PhysicalPlan& plan,
                          const ExecutionResult& result,
                          const StatsCatalog& stats);

/// Plan-level learned cost models (tree-based [39]-style aggregation with
/// GBDT, or the Tree-LSTM/transformer lineage [51,76] represented by an
/// MLP) predicting log latency from plan features.
class LearnedPlanCostModel {
 public:
  enum class ModelType { kGbdt, kMlp };

  explicit LearnedPlanCostModel(ModelType type);

  void Train(const std::vector<CostSample>& samples);
  /// Predicted time units for an annotated plan.
  double PredictTime(const PhysicalPlan& plan) const;
  double PredictFromFeatures(const std::vector<double>& features) const;

  /// Batched-inference counters of the underlying model.
  InferenceStatsSnapshot InferenceStats() const {
    return type_ == ModelType::kGbdt ? gbdt_.Stats() : mlp_.Stats();
  }

  std::string Name() const;
  bool trained() const { return trained_; }

 private:
  ModelType type_;
  GradientBoostedTrees gbdt_;
  Mlp mlp_;
  bool trained_ = false;
};

/// BASE-style calibrated cost model [5]: keeps the analytical formulas but
/// learns a linear recombination of the per-operator work terms that best
/// matches observed latency — "bridging the gap between cost and latency"
/// with far fewer samples than a free-form model.
class CalibratedCostModel {
 public:
  CalibratedCostModel() = default;

  void Train(const std::vector<CostSample>& samples);
  double PredictTime(const PhysicalPlan& plan) const;

  bool trained() const { return trained_; }

  /// The work-term vector the calibration regresses over:
  /// [scan rows, hash build rows, hash probe rows, nlj pairs, sort work,
  ///  merge rows, output rows].
  static std::vector<double> WorkTerms(const PhysicalPlan& plan);

 private:
  RidgeRegression regression_;
  bool trained_ = false;
};

/// Zero-shot-style cost model [16]: one shared regressor over
/// *schema-independent node-local* features; plan cost = sum of per-node
/// predictions. Because no feature references tables or columns, the model
/// transfers across databases (validated by the cost-model bench, which
/// trains on one dataset and tests on another).
class ZeroShotCostModel {
 public:
  ZeroShotCostModel() = default;

  void Train(const std::vector<CostSample>& samples);
  double PredictTime(const PhysicalPlan& plan,
                     const StatsCatalog& stats) const;

  /// Batched-inference counters of the shared node model.
  InferenceStatsSnapshot InferenceStats() const { return node_model_.Stats(); }

  bool trained() const { return trained_; }

 private:
  GradientBoostedTrees node_model_;
  bool trained_ = false;
};

/// Collects per-node features (annotated estimates) for a plan, aligned
/// bottom-up with Executor node profiles. Scan nodes use the raw table row
/// count as their input size (their work is driven by it) and the
/// estimated cardinality as output.
std::vector<std::vector<double>> PlanNodeFeatures(const PhysicalPlan& plan,
                                                  const StatsCatalog& stats);

/// As PlanNodeFeatures, appending one kNodeDim row per node to `out`
/// (which must have kNodeDim columns) — no per-node vector allocation.
void AppendPlanNodeFeatures(const PhysicalPlan& plan,
                            const StatsCatalog& stats, FeatureMatrix* out);

}  // namespace lqo

#endif  // LQO_COSTMODEL_LEARNED_COST_MODEL_H_
