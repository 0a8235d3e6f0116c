#ifndef LQO_CARDINALITY_HYBRID_H_
#define LQO_CARDINALITY_HYBRID_H_

#include <memory>
#include <string>

#include "cardinality/data_driven.h"
#include "cardinality/featurizer.h"
#include "cardinality/training_data.h"
#include "ml/gbdt.h"
#include "optimizer/cardinality_interface.h"

namespace lqo {

/// UAE-style hybrid estimator [63]: an unsupervised data model (the
/// autoregressive estimator) corrected by a supervised residual model
/// trained on the query workload — the "learn from both data and queries"
/// idea, realized as a GBDT on query features predicting the data model's
/// log residual.
class UaeEstimator : public CardinalityEstimatorInterface {
 public:
  UaeEstimator(const Catalog* catalog, const StatsCatalog* stats);

  /// Builds the data model and fits the residual corrector on `data`.
  void Train(const CeTrainingData& data);

  double EstimateSubquery(const Subquery& subquery) override;

  /// Batched estimation: data-model estimates fan out over the pool while
  /// the corrector runs one batched GBDT pass over a per-call feature
  /// matrix — element i bit-identical to EstimateSubquery(subqueries[i]).
  std::vector<double> EstimateSubqueryBatch(
      const std::vector<Subquery>& subqueries) override;

  std::string Name() const override { return "uae_hybrid"; }

  /// Batched-inference counters of the residual corrector.
  InferenceStatsSnapshot InferenceStats() const { return corrector_.Stats(); }

  /// The uncorrected data-model estimate (for the ablation bench).
  double DataOnlyEstimate(const Subquery& subquery);

 private:
  DataDrivenEstimator data_model_;
  QueryFeaturizer featurizer_;
  GradientBoostedTrees corrector_;
  bool trained_ = false;
};

/// GLUE-style estimator [82]: picks the best per-table model family by
/// validating single-table estimates against the training workload, then
/// merges the chosen single-table models across joins with key-bucket
/// histograms.
std::unique_ptr<DataDrivenEstimator> MakeGlueEstimator(
    const Catalog* catalog, const StatsCatalog* stats,
    const CeTrainingData& data);

}  // namespace lqo

#endif  // LQO_CARDINALITY_HYBRID_H_
